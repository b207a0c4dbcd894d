#include "layers.h"

#include "service/json.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndList() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"op_ms", "ms"},         {"heavy_ms", "ms"},
      {"ok_per_s", "1/s"},     {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricList() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"core.mfs.comparisons", "count"},
      {"core.mfs.predictive_skipped", "count"},
      {"core.mfs.candidates_in", "count"},
      {"core.mfs.survival", "ratio"},
      {"core.mfs.useful_ratio", "ratio"},
      {"core.mfs.time_incl_ms", "ms"},
      {"core.msri.run_ms", "ms"},
      {"core.msri.run_ms.ri10", "ms"},
      {"core.msri.run_ms.ri20", "ms"},
      {"core.msri.run_ms.ds20", "ms"},
      {"core.msri.run_ms.n30", "ms"},
      {"core.msri.solutions_generated", "count"},
      {"core.msri.join_candidates", "count"},
      {"core.msri.join_early_ratio", "ratio"},
      {"core.msri.max_set_size", "count"},
      {"core.msri.join_incl_ms", "ms"},
      {"core.msri.augment_incl_ms", "ms"},
      {"core.msri.repeater_incl_ms", "ms"},
      {"core.msri.root_incl_ms", "ms"},
      {"core.pwl.max_calls", "count"},
      {"core.pwl.max_segments_mean", "segments"},
      {"core.pwl.shift_calls", "count"},
      {"core.ard.compute_us", "us"},
      {"runtime.batch_wall_ms", "ms"},
      {"runtime.net_wall_sum_ms", "ms"},
      {"runtime.parallel_eff", "ratio"},
      {"runtime.queue_wait_p50_ms", "ms"},
      {"runtime.longest_net_share", "ratio"},
      {"sta.graph_build_ms", "ms"},
      {"sta.propagate_ms", "ms"},
      {"sta.iterations", "count"},
      {"sta.dp_runs", "count"},
      {"sta.cache_hits", "count"},
      {"service.canonicalize_us", "us"},
      {"service.cache_lookup_us", "us"},
      {"service.cache_insert_us", "us"},
      {"service.hit_ratio", "ratio"},
      {"service.dp_runs", "count"},
      {"service.shed", "count"},
      {"service.latency_hit_p50_ms", "ms"},
      {"service.latency_miss_p50_ms", "ms"},
      {"io.read_net_ms", "ms"},
      {"io.load_design_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kList;
}

Registry Registry::FromJson(const msn::service::JsonValue& doc) {
  Registry reg;
  if (const auto* counters = doc.Find("counters")) {
    for (const auto& [name, v] : counters->AsObject()) {
      reg.counters[name] = v.AsNumber();
    }
  }
  if (const auto* timers = doc.Find("timers")) {
    for (const auto& [name, v] : timers->AsObject()) {
      reg.timer_ms[name] = v.Find("total_ms")->AsNumber();
      reg.timer_calls[name] = v.Find("calls")->AsNumber();
    }
  }
  if (const auto* hists = doc.Find("histograms")) {
    for (const auto& [name, v] : hists->AsObject()) {
      reg.hists[name] = Hist{v.Find("count")->AsNumber(),
                             v.Find("mean")->AsNumber(),
                             v.Find("max")->AsNumber()};
    }
  }
  return reg;
}

Registry Registry::FromJsonText(const std::string& text) {
  return FromJson(msn::service::JsonValue::Parse(text));
}

double Registry::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Registry::TimerMs(const std::string& name) const {
  const auto it = timer_ms.find(name);
  return it == timer_ms.end() ? 0.0 : it->second;
}

double Registry::TimerCalls(const std::string& name) const {
  const auto it = timer_calls.find(name);
  return it == timer_calls.end() ? 0.0 : it->second;
}

Registry::Hist Registry::Histogram(const std::string& name) const {
  const auto it = hists.find(name);
  return it == hists.end() ? Hist{} : it->second;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void AddCoreLayerMetrics(const Registry& reg,
                         std::map<std::string, Metric>* metrics) {
  auto set = [metrics](const std::string& name, double value,
                       const char* unit) {
    (*metrics)[name] = PlainMetric(value, unit);
  };
  const double comparisons = reg.Counter("mfs.comparisons");
  const double in = reg.Counter("mfs.candidates_in");
  set("core.mfs.comparisons", comparisons, "count");
  set("core.mfs.predictive_skipped", reg.Counter("mfs.predictive_skipped"),
      "count");
  set("core.mfs.candidates_in", in, "count");
  set("core.mfs.survival", Ratio(reg.Counter("mfs.candidates_out"), in),
      "ratio");
  set("core.mfs.useful_ratio",
      Ratio(reg.Counter("mfs.pruned_full") + reg.Counter("mfs.pruned_partial"),
            comparisons),
      "ratio");
  set("core.mfs.time_incl_ms", reg.TimerMs("mfs.time"), "ms");

  const double join_candidates = reg.Counter("msri.join_candidates");
  set("core.msri.solutions_generated", reg.Counter("msri.solutions_generated"),
      "count");
  set("core.msri.join_candidates", join_candidates, "count");
  set("core.msri.join_early_ratio",
      Ratio(reg.Counter("msri.join_pruned_early"), join_candidates), "ratio");
  set("core.msri.max_set_size", reg.Histogram("msri.set_size").max, "count");
  set("core.msri.join_incl_ms", reg.TimerMs("msri.join"), "ms");
  set("core.msri.augment_incl_ms", reg.TimerMs("msri.augment"), "ms");
  set("core.msri.repeater_incl_ms", reg.TimerMs("msri.repeater"), "ms");
  set("core.msri.root_incl_ms", reg.TimerMs("msri.root"), "ms");

  const Registry::Hist max = reg.Histogram("pwl.max.segments");
  set("core.pwl.max_calls", max.count, "count");
  set("core.pwl.max_segments_mean", max.mean, "segments");
  set("core.pwl.shift_calls", reg.Histogram("pwl.shift.segments").count,
      "count");
}

}  // namespace perfbench
