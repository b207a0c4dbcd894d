// Shared helpers for the benchmark harness (one binary per paper table or
// figure; see DESIGN.md §3 for the experiment index).
#ifndef MSN_BENCH_BENCH_UTIL_H
#define MSN_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/msri.h"
#include "netgen/netgen.h"
#include "tech/tech.h"

namespace msn::bench {

/// The paper's Section VI workload: 10 random nets per cardinality on a
/// 1 cm grid, insertion spacing <= 800 um, >= 1 point per wire.
inline std::vector<RcTree> ExperimentNets(const Technology& tech,
                                          std::size_t num_terminals,
                                          std::size_t count = 10,
                                          double spacing_um = 800.0) {
  std::vector<RcTree> nets;
  nets.reserve(count);
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    NetConfig cfg;
    cfg.seed = seed;
    cfg.num_terminals = num_terminals;
    cfg.insertion_spacing_um = spacing_um;
    nets.push_back(BuildExperimentNet(cfg, tech));
  }
  return nets;
}

/// The paper's driver-sizing setup: 1X..4X drivers and receivers.
inline MsriOptions SizingOptions(const Technology& tech) {
  MsriOptions opt;
  opt.insert_repeaters = false;
  opt.size_drivers = true;
  opt.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0, 3.0, 4.0});
  return opt;
}

/// Wall-clock seconds consumed by `fn()`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace msn::bench

#endif  // MSN_BENCH_BENCH_UTIL_H
