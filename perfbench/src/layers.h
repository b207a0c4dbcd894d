// Per-layer metrics of the traced run: the fixed list (mirrored by
// BENCHMARK.json's "per_layer"), and their extraction from the counters
// and timers the library already exports through obs::RunStats.
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace msn::service {
class JsonValue;
}

namespace perfbench {

/// Every end-to-end metric as (name, unit), mirrored by BENCHMARK.json's
/// "end_to_end".  Each workload fills all of them (see README.md).
const std::vector<std::pair<std::string, std::string>>& EndToEndList();

/// Every per-layer metric as (name, unit), in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricList();

/// Flattened view of one msn-run-stats-v1 registry document.
struct Registry {
  struct Hist {
    double count = 0.0;
    double mean = 0.0;
    double max = 0.0;
  };
  std::map<std::string, double> counters;
  std::map<std::string, double> timer_ms;
  std::map<std::string, double> timer_calls;
  std::map<std::string, Hist> hists;

  static Registry FromJson(const msn::service::JsonValue& doc);
  static Registry FromJsonText(const std::string& text);

  double Counter(const std::string& name) const;
  double TimerMs(const std::string& name) const;
  double TimerCalls(const std::string& name) const;
  Hist Histogram(const std::string& name) const;
};

/// Adds the core.mfs / core.msri / core.pwl metrics read from a DP
/// registry (one traced pass of a workload).
void AddCoreLayerMetrics(const Registry& reg,
                         std::map<std::string, Metric>* metrics);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
