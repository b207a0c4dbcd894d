// Exercises the paper's Section III claim: ARD(T) under Elmore is
// computable in O(n) — no harder than a single-source RC radius — whereas
// the obvious method runs one single-source pass per source, O(k*n).
//
// We sweep the terminal count (all terminals are sources and sinks, so
// k = n) and time both engines on MST-based topologies with insertion
// points; the naive/linear time ratio should grow linearly in n.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_util.h"
#include "core/ard.h"
#include "elmore/delay.h"
#include "io/table.h"
#include "netgen/netgen.h"
#include "steiner/spanning.h"

namespace {

const msn::Technology& Tech() {
  static const msn::Technology tech = msn::DefaultTechnology();
  return tech;
}

/// MST topology (1-Steiner is too slow at thousands of terminals and the
/// engines don't care about Steiner quality here).
msn::RcTree BigNet(std::size_t n) {
  const std::vector<msn::Point> pts = msn::RandomTerminals(7, n, 10'000);
  const msn::SteinerTree topo = msn::RectilinearMst(pts);
  const std::vector<msn::TerminalParams> params(
      n, msn::DefaultTerminal(Tech()));
  msn::RcTree tree = msn::RcTree::FromSteinerTree(topo, Tech().wire, params);
  tree.AddInsertionPoints(800.0, /*at_least_one_per_wire=*/false);
  return tree;
}

std::map<std::size_t, std::pair<double, double>> g_seconds;  // n -> (lin, naive).

void BM_LinearArd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const msn::RcTree tree = BigNet(n);
  const msn::RepeaterAssignment none(tree.NumNodes());
  const msn::DriverAssignment drivers(tree.NumTerminals());
  double ard = 0.0;
  for (auto _ : state) {
    ard = msn::ComputeArd(tree, none, drivers, Tech()).ard_ps;
    benchmark::DoNotOptimize(ard);
  }
  g_seconds[n].first = msn::bench::TimeSeconds([&] {
    benchmark::DoNotOptimize(
        msn::ComputeArd(tree, none, drivers, Tech()).ard_ps);
  });
}

void BM_NaiveArd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const msn::RcTree tree = BigNet(n);
  const msn::RepeaterAssignment none(tree.NumNodes());
  const msn::DriverAssignment drivers(tree.NumTerminals());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msn::NaiveArd(tree, none, drivers, Tech()).ard_ps);
  }
  g_seconds[n].second = msn::bench::TimeSeconds([&] {
    benchmark::DoNotOptimize(
        msn::NaiveArd(tree, none, drivers, Tech()).ard_ps);
  });
}

BENCHMARK(BM_LinearArd)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NaiveArd)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Section III claim: linear-time ARD vs k single-source"
               " passes ===\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  msn::TablePrinter t({"terminals", "linear (s)", "naive k-pass (s)",
                       "speedup"});
  for (const auto& [n, secs] : g_seconds) {
    t.AddRow({std::to_string(n), msn::TablePrinter::Num(secs.first, 6),
              msn::TablePrinter::Num(secs.second, 6),
              msn::TablePrinter::Num(secs.second /
                                         std::max(secs.first, 1e-9),
                                     1)});
  }
  std::cout << '\n';
  t.Print(std::cout);
  std::cout << "\nexpected shape: the speedup grows roughly linearly with"
               " the terminal count (k = n sources).\n";
  return 0;
}
