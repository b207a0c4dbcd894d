// Scaling study for the msn::sta timing-closure loop (docs/STA.md):
// generate multi-net designs of increasing size, run close-timing on
// each, and report wall time, iterations to convergence, DP-vs-cache
// traffic, and the final worst slack.  The per-iteration DP work fans
// out through the runtime batch engine, so wall time should grow close
// to linearly in the number of failing nets while the cache keeps
// re-selected nets from paying the DP twice.
//
// Usage: bench_sta_closure [--max-nets N] [--jobs J] [--max-iters K]
// Defaults sweep 25..200 nets; CI smoke runs use --max-nets 25.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "io/table.h"
#include "netgen/design_gen.h"
#include "sta/closure.h"

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

msn::DesignConfig SizedConfig(std::size_t nets) {
  msn::DesignConfig cfg;
  cfg.seed = 1000 + nets;  // Distinct but reproducible per size.
  cfg.num_nets = nets;
  cfg.required_factor = 0.55;  // Most endpoints start failing.
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using msn::TablePrinter;
  const std::size_t max_nets = FlagOr(argc, argv, "--max-nets", 200);
  const std::size_t jobs = FlagOr(argc, argv, "--jobs", 4);
  const std::size_t max_iters = FlagOr(argc, argv, "--max-iters", 12);

  const msn::Technology tech = msn::DefaultTechnology();

  std::cout << "=== Timing-closure scaling: nets per design (jobs=" << jobs
            << ") ===\n\n";

  TablePrinter t({"nets", "endpoints", "iters", "dp runs", "cache hits",
                  "wall (s)", "ms/net", "final slack (ps)"});

  for (std::size_t nets = 25; nets <= max_nets; nets *= 2) {
    const msn::sta::Design design =
        msn::GenerateDesign(SizedConfig(nets), tech);
    msn::sta::ClosureOptions opt;
    opt.jobs = jobs;
    opt.max_iters = max_iters;
    msn::sta::ClosureResult result;
    const double secs = msn::bench::TimeSeconds(
        [&] { result = msn::sta::CloseTiming(design, tech, opt); });

    std::uint64_t dp_runs = 0, cache_hits = 0;
    for (const msn::sta::IterationStats& it : result.iterations) {
      dp_runs += it.dp_runs;
      cache_hits += it.cache_hits;
    }
    for (const msn::sta::NetClosure& net : result.nets) {
      if (!net.error.empty()) {
        std::cerr << "net '" << net.name << "' failed: " << net.error
                  << '\n';
        return 1;
      }
    }

    t.AddRow({std::to_string(nets),
              std::to_string(result.endpoint_slacks.size()),
              std::to_string(result.iterations.size()),
              std::to_string(dp_runs), std::to_string(cache_hits),
              TablePrinter::Num(secs, 4),
              TablePrinter::Num(1e3 * secs / static_cast<double>(nets), 3),
              TablePrinter::Num(result.final_worst_slack_ps, 1)});
  }

  t.Print(std::cout);
  std::cout << "\nexpected shape: wall time ~ linear in failing nets;"
               " cache hits absorb re-selected nets after iteration 1.\n";
  return 0;
}
