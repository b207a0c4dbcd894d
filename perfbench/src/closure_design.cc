// closure_design: sta::CloseTiming on generated 2000-net designs.
//
// About a thousand tiny DP runs per closure (3-5 terminals, ~16 MFS
// candidates each), so the time goes to batch fan-out, STA propagation,
// canonicalization and insert-heavy cache traffic rather than to MFS.
// Each closure starts from a fresh in-memory cache.  The designs are a
// fixed set, `msn_cli gen-design --nets 2000 --seed 1..kDesigns`, each
// with a committed report digest; the benchmark seed orders the closures
// of every repetition.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "io/netfile.h"
#include "core/ard.h"
#include "harness.h"
#include "layers.h"
#include "netgen/design_gen.h"
#include "runtime/batch.h"
#include "service/cache.h"
#include "service/canonical.h"
#include "sta/closure.h"
#include "sta/design.h"
#include "sta/timing_graph.h"
#include "tech/tech.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kDesigns = 4;

std::size_t Jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(4, n));
}

msn::sta::Design Generate(std::uint64_t design_seed,
                          const msn::Technology& tech) {
  msn::DesignConfig cfg;
  cfg.seed = design_seed;
  cfg.num_nets = 2000;
  cfg.terminals_min = 3;
  cfg.terminals_max = 5;
  cfg.required_factor = 0.9;
  return msn::GenerateDesign(cfg, tech);
}

/// Generates the design, writes its .msd and .msn texts and parses them
/// back with the parsers LoadDesign uses.  In memory, so that set-up time
/// does not depend on the file system; LoadDesign itself is timed in the
/// traced run.
msn::sta::Design Setup(std::uint64_t design_seed, const msn::Technology& tech,
                       Spans& spans) {
  const Spans::Scope setup(spans, "setup");
  std::string msd;
  std::vector<std::string> msn_texts;
  {
    const Spans::Scope gen(spans, "gen");
    const msn::sta::Design generated = Generate(design_seed, tech);
    std::ostringstream os;
    msn::sta::WriteDesign(os, generated);
    msd = os.str();
    for (const msn::sta::DesignNet& net : generated.nets) {
      std::ostringstream net_os;
      msn::WriteNet(net_os, *net.tree);
      msn_texts.push_back(net_os.str());
    }
  }
  const Spans::Scope parse(spans, "io.parse_design");
  std::istringstream is(msd);
  msn::sta::Design design = msn::sta::ReadDesign(is);
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    std::istringstream net_is(msn_texts[n]);
    design.nets[n].tree = msn::ReadNet(net_is);
  }
  design.Validate();
  return design;
}

/// Mean ms of LoadDesign over the designs, each written as files first.
double LoadDesignMs(const std::string& dir, const msn::Technology& tech,
                    Spans& spans) {
  double total_ms = 0.0;
  for (std::uint64_t d = 1; d <= kDesigns; ++d) {
    const std::string msd = msn::WriteDesignFiles(Generate(d, tech), dir);
    const auto t0 = Clock::now();
    {
      const Spans::Scope load(spans, "io.load_design");
      msn::sta::LoadDesign(msd);
    }
    total_ms += Seconds(t0, Clock::now()) * 1e3;
    std::filesystem::remove_all(dir);
  }
  return total_ms / kDesigns;
}

msn::sta::ClosureOptions ClosureOpts() {
  msn::sta::ClosureOptions opt;
  opt.jobs = Jobs();
  return opt;
}

std::string Report(const msn::sta::ClosureResult& result) {
  std::ostringstream os;
  msn::sta::WriteClosureReport(os, result);
  return os.str();
}

/// "<fnv1a64 hex> <bytes>" of a closure report.
std::string Digest(const std::string& report) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx %zu",
                static_cast<unsigned long long>(Fnv1a64(report)),
                report.size());
  return buf;
}

/// Times the layers CloseTiming is built from, called directly on the
/// same design: graph build + propagation, per-net ARD annotation,
/// canonicalization, the DP batch of the nets the closure optimized, and
/// cache insert/lookup of their frontiers.
void ProbeLayers(const msn::sta::Design& design, const msn::Technology& tech,
                 const msn::sta::ClosureResult& closure, Spans& spans,
                 std::map<std::string, Metric>* metrics) {
  const Spans::Scope probe(spans, "probe");
  auto now = [] { return Clock::now(); };

  auto t0 = now();
  std::optional<msn::sta::TimingGraph> graph;
  {
    const Spans::Scope s(spans, "sta.graph_build");
    graph.emplace(design);
  }
  (*metrics)["sta.graph_build_ms"] =
      PlainMetric(Seconds(t0, now()) * 1e3, "ms");
  std::vector<double> ard_us;
  {
    const Spans::Scope s(spans, "core.ard");
    for (std::size_t n = 0; n < design.nets.size(); ++n) {
      const auto a0 = now();
      const double ard = msn::ComputeArd(*design.nets[n].tree, tech).ard_ps;
      ard_us.push_back(Seconds(a0, now()) * 1e6);
      graph->SetNetDelayPs(n, ard);
    }
  }
  (*metrics)["core.ard.compute_us"] = PlainMetric(Median(ard_us), "us");
  t0 = now();
  {
    const Spans::Scope s(spans, "sta.propagate");
    graph->Propagate();
  }
  (*metrics)["sta.propagate_ms"] = PlainMetric(Seconds(t0, now()) * 1e3, "ms");

  const msn::MsriOptions base = ClosureOpts().base;
  std::vector<msn::service::CanonicalRequest> canon;
  std::vector<double> canon_us;
  {
    const Spans::Scope s(spans, "service.canonicalize");
    for (const msn::sta::DesignNet& net : design.nets) {
      const auto c0 = now();
      canon.push_back(msn::service::Canonicalize(*net.tree, tech, base));
      canon_us.push_back(Seconds(c0, now()) * 1e6);
    }
  }
  (*metrics)["service.canonicalize_us"] = PlainMetric(Median(canon_us), "us");

  // The closure ran the DP once for each net it examined (fresh cache);
  // those are the nets with a derived spec.
  std::vector<std::size_t> examined;
  std::vector<msn::runtime::BatchJob> jobs;
  for (std::size_t n = 0; n < closure.nets.size(); ++n) {
    if (!std::isfinite(closure.nets[n].spec_ps)) continue;
    examined.push_back(n);
    jobs.push_back(msn::runtime::BatchJob{design.nets[n].name,
                                          *design.nets[n].tree, base});
  }
  msn::runtime::BatchOptions bopts;
  bopts.jobs = Jobs();
  t0 = now();
  msn::runtime::BatchResult batch;
  {
    const Spans::Scope s(spans, "runtime.optimize_batch");
    batch = msn::runtime::OptimizeBatch(std::move(jobs), tech, bopts);
  }
  const double batch_ms = Seconds(t0, now()) * 1e3;
  double wall_sum = 0.0, longest = 0.0;
  std::vector<double> waits;
  for (const msn::runtime::NetOutcome& net : batch.nets) {
    wall_sum += net.wall_ms;
    longest = std::max(longest, net.wall_ms);
    waits.push_back(net.queue_wait_ms);
  }
  (*metrics)["runtime.batch_wall_ms"] = PlainMetric(batch_ms, "ms");
  (*metrics)["runtime.net_wall_sum_ms"] = PlainMetric(wall_sum, "ms");
  (*metrics)["runtime.parallel_eff"] = PlainMetric(
      Ratio(wall_sum, static_cast<double>(batch.jobs) * batch_ms), "ratio");
  (*metrics)["runtime.queue_wait_p50_ms"] = PlainMetric(Median(waits), "ms");
  (*metrics)["runtime.longest_net_share"] =
      PlainMetric(Ratio(longest, batch_ms), "ratio");

  msn::service::SolutionCache cache{msn::service::CacheConfig{}};
  std::vector<double> insert_us, lookup_us;
  {
    const Spans::Scope s(spans, "service.cache");
    for (std::size_t i = 0; i < examined.size(); ++i) {
      if (!batch.nets[i].ok) continue;
      msn::MsriSummary summary = msn::Summarize(batch.nets[i].result);
      const auto c0 = now();
      cache.Insert(canon[examined[i]], std::move(summary));
      insert_us.push_back(Seconds(c0, now()) * 1e6);
    }
    std::size_t hits = 0;
    for (const std::size_t n : examined) {
      const auto c0 = now();
      hits += cache.Lookup(canon[n]).has_value() ? 1 : 0;
      lookup_us.push_back(Seconds(c0, now()) * 1e6);
    }
    MSN_CHECK_MSG(hits == insert_us.size(), "cache probe lost an entry");
  }
  (*metrics)["service.cache_insert_us"] = PlainMetric(Median(insert_us), "us");
  (*metrics)["service.cache_lookup_us"] = PlainMetric(Median(lookup_us), "us");
}

}  // namespace

std::string ClosureGolden() {
  const msn::Technology tech = msn::DefaultTechnology();
  Spans spans(false);
  std::string out = "# closure_design golden: <design seed> <fnv1a64> <bytes>"
                    " of WriteClosureReport\n";
  for (std::uint64_t s = 1; s <= kDesigns; ++s) {
    const msn::sta::Design design = Setup(s, tech, spans);
    out += std::to_string(s) + " " +
           Digest(Report(msn::sta::CloseTiming(design, tech, ClosureOpts()))) +
           "\n";
  }
  return out;
}

Outcome RunClosureDesign(const Options& options, Spans& spans) {
  Outcome out;
  const msn::Technology tech = msn::DefaultTechnology();

  std::map<std::uint64_t, std::string> golden;
  {
    bool ok = false;
    std::istringstream is(
        ReadFile(options.golden_dir + "/closure_design.txt", &ok));
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t sp = line.find(' ');
      golden[std::stoull(line.substr(0, sp))] = line.substr(sp + 1);
    }
  }

  // Set-up, three times (median reported): generate every design and
  // parse it back.
  HostRef host;
  std::vector<Timed> setup_reps;
  std::vector<msn::sta::Design> designs;
  for (int i = 0; i < 3; ++i) {
    designs.clear();
    host.Sample(1, static_cast<int>(Jobs()));
    const auto t0 = Clock::now();
    for (std::uint64_t d = 1; d <= kDesigns; ++d) {
      designs.push_back(Setup(d, tech, spans));
    }
    setup_reps.push_back(Timed{t0, Seconds(t0, Clock::now()) * 1e3});
  }

  const msn::sta::ClosureOptions copts = ClosureOpts();
  std::vector<std::vector<Timed>> closure_reps(kDesigns);
  std::size_t ok_nets = 0;
  const int jobs = static_cast<int>(Jobs());
  auto close = [&](std::size_t d, Spans& sp) {
    host.Sample(1, jobs);
    msn::sta::ClosureResult result;
    const auto t0 = Clock::now();
    {
      const Spans::Scope s(sp, "sta.close_timing");
      result = msn::sta::CloseTiming(designs[d], tech, copts);
    }
    closure_reps[d].push_back(Timed{t0, Seconds(t0, Clock::now()) * 1e3});
    ++out.attempted;
    const Spans::Scope v(sp, "verify");
    bool ok = Digest(Report(result)) == golden[d + 1];
    for (const msn::sta::NetClosure& net : result.nets) {
      ok = ok && net.error.empty();
    }
    if (ok) {
      ok_nets += result.nets.size();
    } else {
      ++out.failed;
    }
    return result;
  };

  if (options.trace) {
    // Every design closed once untraced and once traced: the traced
    // closures give the layer numbers, the pair gives the overhead.
    Spans untraced(false);
    msn::obs::RunStats registry;
    msn::sta::ClosureResult first;
    double untraced_s = 0.0, traced_s = 0.0;
    for (std::size_t d = 0; d < kDesigns; ++d) {
      close(d, untraced);
      untraced_s += closure_reps[d].back().ms;
      const Spans::Scope measure(spans, "measure");
      msn::sta::ClosureResult result = close(d, spans);
      traced_s += closure_reps[d].back().ms;
      registry.MergeFrom(result.registry);
      if (d == 0) first = std::move(result);
    }
    const Registry reg = Registry::FromJsonText(registry.JsonString());
    AddCoreLayerMetrics(reg, &out.metrics);
    out.metrics["core.msri.run_ms"] = PlainMetric(
        Ratio(reg.TimerMs("msri.total"), reg.TimerCalls("msri.total")), "ms");
    out.metrics["sta.iterations"] =
        PlainMetric(reg.Counter("sta.iterations"), "count");
    out.metrics["sta.dp_runs"] = PlainMetric(reg.Counter("sta.dp_runs"), "count");
    out.metrics["sta.cache_hits"] =
        PlainMetric(reg.Counter("sta.cache_hits"), "count");
    const double hits = reg.Counter("service.cache.hits");
    out.metrics["service.hit_ratio"] = PlainMetric(
        Ratio(hits, hits + reg.Counter("service.cache.misses")), "ratio");
    out.metrics["io.load_design_ms"] = PlainMetric(
        LoadDesignMs(options.work_dir + "/closure-" +
                         std::to_string(::getpid()),
                     tech, spans),
        "ms");
    out.metrics["bench.trace_overhead_pct"] =
        PlainMetric((traced_s / untraced_s - 1.0) * 100.0, "%");
    ProbeLayers(designs[0], tech, first, spans, &out.metrics);
  } else {
    std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ull + 7);
    std::vector<std::size_t> order(kDesigns);
    for (std::size_t d = 0; d < kDesigns; ++d) order[d] = d;
    const auto start = Clock::now();
    do {
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::size_t d : order) close(d, spans);
    } while (Seconds(start, Clock::now()) < options.seconds);

    host.Sample(1, jobs);
    // Mean over designs of each design's median host-scaled closure time;
    // the tail percentile is taken over every closure.
    std::vector<double> all_ms;
    double scaled_ms = 0.0, raw_ms = 0.0;
    Metric heavy = PlainMetric(0.0, "ms");
    for (const std::vector<Timed>& reps : closure_reps) {
      std::vector<double> s, r;
      for (const Timed& rep : reps) {
        s.push_back(host.Scaled(rep));
        r.push_back(rep.ms);
      }
      scaled_ms += Median(s) / kDesigns;
      raw_ms += Median(r) / kDesigns;
      all_ms.insert(all_ms.end(), s.begin(), s.end());
      if (Median(s) > heavy.value) {
        heavy.value = Median(s);
        heavy.raw = Median(r);
        heavy.samples = s.size();
      }
    }
    Metric op = PlainMetric(scaled_ms, "ms");
    op.raw = raw_ms;
    op.samples = all_ms.size();
    op.tail_pct = TailPct(all_ms.size());
    if (op.tail_pct > 0) op.tail_value = Quantile(all_ms, op.tail_pct / 100.0);
    out.metrics["op_ms"] = op;
    Metric closure = op;
    closure.unit = "s";
    closure.value /= 1e3;
    closure.raw /= 1e3;
    closure.tail_value /= 1e3;
    out.metrics["closure_s"] = closure;
    // The slowest design's median closure time.
    out.metrics["heavy_ms"] = heavy;
    // Correctly closed nets per second at the closure time reported above.
    Metric ok = PlainMetric(
        Ratio(static_cast<double>(ok_nets) /
                  static_cast<double>(out.attempted),
              scaled_ms / 1e3),
        "1/s");
    ok.samples = out.attempted;
    out.metrics["ok_per_s"] = ok;
    out.metrics["setup_s"] = TimingMetric(setup_reps, host, "s", 1e-3);
  }
  out.detail["designs"] = std::to_string(kDesigns);
  out.detail["host"] = host.Json();
  out.detail["jobs"] = std::to_string(copts.jobs);
  out.detail["nets_per_design"] = std::to_string(designs[0].nets.size());
  return out;
}

}  // namespace perfbench
