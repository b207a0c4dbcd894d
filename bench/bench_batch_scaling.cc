// Thread-scaling study for the msn::runtime batch engine
// (docs/RUNTIME.md): optimize a batch of independent nets at 1/2/4/8
// worker threads and report wall time, speedup, and parallel efficiency.
// Per-net DP work is embarrassingly parallel, so on an N-core machine the
// speedup should track min(jobs, N) until the slowest single net
// dominates (the batch's critical path).
//
// Every configuration's report is byte-compared against the jobs=1 run —
// the determinism contract — so this bench doubles as a stress check.
//
// Usage: bench_batch_scaling [--nets N] [--terminals T] [--max-jobs J]
// Defaults (32 nets x 8 terminals) exercise the acceptance workload; CI
// smoke runs use a tiny batch (e.g. --nets 6 --terminals 4).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "io/table.h"
#include "runtime/batch.h"

namespace {

std::size_t FlagOr(int argc, char** argv, const std::string& flag,
                   std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) {
      return static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

std::vector<msn::runtime::BatchJob> MakeJobs(const msn::Technology& tech,
                                             std::size_t nets,
                                             std::size_t terminals) {
  std::vector<msn::runtime::BatchJob> jobs;
  jobs.reserve(nets);
  for (std::uint64_t seed = 1; seed <= nets; ++seed) {
    msn::NetConfig cfg;
    cfg.seed = seed;
    cfg.num_terminals = terminals;
    jobs.push_back(msn::runtime::BatchJob{
        "net" + std::to_string(seed), msn::BuildExperimentNet(cfg, tech),
        msn::MsriOptions{}});
  }
  return jobs;
}

std::string Render(const msn::runtime::BatchResult& batch) {
  std::ostringstream os;
  msn::runtime::WriteBatchReport(os, batch);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using msn::TablePrinter;
  const std::size_t nets = FlagOr(argc, argv, "--nets", 32);
  const std::size_t terminals = FlagOr(argc, argv, "--terminals", 8);
  const std::size_t max_jobs = FlagOr(argc, argv, "--max-jobs", 8);

  const msn::Technology tech = msn::DefaultTechnology();
  const std::vector<msn::runtime::BatchJob> jobs =
      MakeJobs(tech, nets, terminals);

  std::cout << "=== Batch engine thread scaling: " << nets << " nets x "
            << terminals << " terminals ===\n\n";

  TablePrinter t({"jobs", "wall (s)", "speedup", "efficiency"});

  double base_s = 0.0;
  std::string base_report;
  bool deterministic = true;
  for (std::size_t j = 1; j <= max_jobs; j *= 2) {
    msn::runtime::BatchOptions opt;
    opt.jobs = j;
    msn::runtime::BatchResult batch;
    const double secs = msn::bench::TimeSeconds(
        [&] { batch = msn::runtime::OptimizeBatch(jobs, tech, opt); });
    if (!batch.AllOk()) {
      std::cerr << "batch run failed at jobs=" << j << '\n';
      return 1;
    }
    if (j == 1) {
      base_s = secs;
      base_report = Render(batch);
    } else if (Render(batch) != base_report) {
      deterministic = false;
    }
    const double speedup = base_s / std::max(secs, 1e-9);
    t.AddRow({std::to_string(j), TablePrinter::Num(secs, 4),
              TablePrinter::Num(speedup, 2),
              TablePrinter::Num(speedup / static_cast<double>(j), 2)});
  }

  t.Print(std::cout);
  std::cout << "\nreport determinism across thread counts: "
            << (deterministic ? "ok (byte-identical)" : "VIOLATED") << '\n'
            << "expected shape: speedup ~ min(jobs, cores) until the"
               " slowest net dominates.\n";
  return deterministic ? 0 : 1;
}
