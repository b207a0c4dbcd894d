// dp_nets: the paper's Section VI nets solved one RunMsri at a time.
//
// The corpus is fixed so that its frontiers can be checked against the
// committed golden and its work counters stay comparable across commits:
// BuildExperimentNet seeds 1-10 at 10 and 20 pins in repeater-insertion
// mode (ri10, ri20), the same 20-pin nets in driver-sizing mode (ds20),
// and the 30-pin stress net `msn_cli gen --terminals 30 --seed 4` (n30).
// The benchmark seed shuffles the solve order.  Every net goes through
// WriteNet/ReadNet, so the DP sees exactly what the CLI would parse.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>

#include "core/ard.h"
#include "core/msri.h"
#include "harness.h"
#include "io/netfile.h"
#include "layers.h"
#include "netgen/netgen.h"
#include "tech/tech.h"

namespace perfbench {
namespace {

struct Net {
  std::string cls;  ///< ri10 / ri20 / ds20 / n30.
  std::uint64_t net_seed = 0;
  msn::RcTree tree;
};

const char* const kClasses[] = {"ri10", "ri20", "ds20", "n30"};

msn::MsriOptions OptionsFor(const std::string& cls,
                            const msn::Technology& tech) {
  msn::MsriOptions opt;
  if (cls == "ds20") {
    opt.insert_repeaters = false;
    opt.size_drivers = true;
    opt.sizing_library = msn::DriverSizingLibrary(tech, {1.0, 2.0, 3.0, 4.0});
  }
  return opt;
}

msn::RcTree Generate(std::uint64_t seed, std::size_t terminals,
                     const msn::Technology& tech) {
  msn::NetConfig cfg;
  cfg.seed = seed;
  cfg.num_terminals = terminals;
  return msn::BuildExperimentNet(cfg, tech);
}

/// Generates the corpus, serializes it and parses it back.
std::vector<Net> Setup(const msn::Technology& tech, Spans& spans) {
  const Spans::Scope setup(spans, "setup");
  struct Spec {
    const char* cls;
    std::uint64_t seed;
    std::size_t terminals;
  };
  std::vector<Spec> specs;
  for (std::uint64_t s = 1; s <= 10; ++s) specs.push_back({"ri10", s, 10});
  for (std::uint64_t s = 1; s <= 10; ++s) specs.push_back({"ri20", s, 20});
  specs.push_back({"n30", 4, 30});

  std::vector<std::string> texts;
  {
    const Spans::Scope gen(spans, "gen");
    for (const Spec& spec : specs) {
      std::ostringstream os;
      msn::WriteNet(os, Generate(spec.seed, spec.terminals, tech));
      texts.push_back(os.str());
    }
  }
  std::vector<Net> nets;
  {
    const Spans::Scope read(spans, "io.read_net");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::istringstream is(texts[i]);
      nets.push_back(Net{specs[i].cls, specs[i].seed, msn::ReadNet(is)});
    }
  }
  // Driver sizing runs on the 20-pin nets.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (nets[i].cls == "ri20") {
      nets.push_back(Net{"ds20", nets[i].net_seed, nets[i].tree});
    }
  }
  return nets;
}

std::string Key(const Net& net) {
  return net.cls + " " + std::to_string(net.net_seed);
}

/// One golden line: "<class> <seed>:" then " cost ard repeaters;" per
/// Pareto point, every double printed exactly.
std::string FrontierLine(const Net& net, const msn::MsriResult& result) {
  std::string line = Key(net) + ":";
  char buf[96];
  for (const msn::TradeoffPoint& p : result.Pareto()) {
    std::snprintf(buf, sizeof(buf), " %.17g %.17g %zu;", p.cost, p.ard_ps,
                  p.num_repeaters);
    line += buf;
  }
  return line;
}

std::map<std::string, std::string> LoadGolden(const std::string& dir) {
  bool ok = false;
  const std::string text = ReadFile(dir + "/dp_nets.txt", &ok);
  std::map<std::string, std::string> golden;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden[line.substr(0, line.find(':'))] = line;
  }
  return golden;
}

/// Correctness of one solved net: the frontier matches the golden byte
/// for byte, and every point's ARD recomputes to the reported value.
bool Verify(const Net& net, const msn::MsriResult& result,
            const msn::Technology& tech,
            const std::map<std::string, std::string>& golden, Spans& spans,
            std::vector<double>* ard_us) {
  const Spans::Scope verify(spans, "verify");
  bool ok = !result.Pareto().empty();
  {
    const Spans::Scope g(spans, "golden");
    const auto it = golden.find(Key(net));
    ok = ok && it != golden.end() && it->second == FrontierLine(net, result);
  }
  const Spans::Scope oracle(spans, "core.ard");
  for (const msn::TradeoffPoint& p : result.Pareto()) {
    const auto t0 = Clock::now();
    const double ard =
        msn::ComputeArd(net.tree, p.repeaters, p.drivers, tech).ard_ps;
    ard_us->push_back(Seconds(t0, Clock::now()) * 1e6);
    ok = ok && std::fabs(ard - p.ard_ps) <= 1e-6 * std::max(1.0, ard);
  }
  return ok;
}

}  // namespace

std::string DpNetsGolden() {
  const msn::Technology tech = msn::DefaultTechnology();
  Spans spans(false);
  std::string out =
      "# dp_nets golden: <class> <net seed>: <cost> <ARD ps> <repeaters>;"
      " per Pareto point\n";
  for (const Net& net : Setup(tech, spans)) {
    out += FrontierLine(net, msn::RunMsri(net.tree, tech,
                                          OptionsFor(net.cls, tech))) +
           "\n";
  }
  return out;
}

Outcome RunDpNets(const Options& options, Spans& spans) {
  Outcome out;
  const msn::Technology tech = msn::DefaultTechnology();
  const std::map<std::string, std::string> golden =
      LoadGolden(options.golden_dir);

  // Set-up, three times: generate, write and parse the corpus.
  HostRef host;
  std::vector<Timed> setup_reps;
  std::vector<Net> nets;
  for (int i = 0; i < 3; ++i) {
    host.Sample(2);
    const auto t0 = Clock::now();
    nets = Setup(tech, spans);
    setup_reps.push_back(Timed{t0, Seconds(t0, Clock::now()) * 1e3});
  }
  std::map<std::string, msn::MsriOptions> opts;
  for (const char* cls : kClasses) opts[cls] = OptionsFor(cls, tech);

  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<double> ard_us;
  std::vector<std::vector<Timed>> net_reps(nets.size());  // Every solve.
  std::map<std::string, double> n30_counts;
  std::uint64_t ok_nets = 0;

  // One round solves every net `pick` selects once, class by class, nets
  // in seeded order.  `sink` instruments the DP (traced pass only).  Host
  // speed is sampled on this thread before each solve and, during the
  // seconds-long 30-pin solve, on a spare core (the DP is serial).
  auto round = [&](msn::obs::StatsSink* sink, Spans& sp, auto pick) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (pick(nets[i])) order.push_back(i);
    }
    std::shuffle(order.begin(), order.end(), rng);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return nets[a].cls < nets[b].cls;
                     });
    double total_s = 0.0;
    for (const std::size_t i : order) {
      const Net& net = nets[i];
      msn::MsriOptions opt = opts[net.cls];
      opt.stats = sink;
      msn::MsriResult result;
      host.Sample();
      if (net.cls == "n30") host.StartBackground(std::chrono::milliseconds(20));
      const auto t0 = Clock::now();
      {
        const Spans::Scope run(sp, "core.msri." + net.cls);
        result = msn::RunMsri(net.tree, tech, opt);
      }
      const double s = Seconds(t0, Clock::now());
      host.StopBackground();
      total_s += s;
      net_reps[i].push_back(Timed{t0, s * 1e3});
      ++out.attempted;
      if (Verify(net, result, tech, golden, sp, &ard_us)) {
        ++ok_nets;
      } else {
        ++out.failed;
      }
      if (net.cls == "n30") {
        const msn::MsriStats& st = result.Stats();
        n30_counts["comparisons"] = static_cast<double>(st.mfs.comparisons);
        n30_counts["solutions_generated"] =
            static_cast<double>(st.solutions_generated);
        n30_counts["max_set_size"] = static_cast<double>(st.max_set_size);
      }
    }
    return total_s;
  };

  // Mean ms per net over the nets `in` selects, each net's time being the
  // median of its host-scaled solves; the tail is taken over every solve
  // of those nets.
  auto class_metric = [&](auto in) {
    std::vector<double> all;
    double scaled = 0.0, raw = 0.0, count = 0.0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (!in(nets[i])) continue;
      std::vector<double> s, r;
      for (const Timed& rep : net_reps[i]) {
        s.push_back(host.Scaled(rep));
        r.push_back(rep.ms);
      }
      scaled += Median(s);
      raw += Median(r);
      count += 1.0;
      all.insert(all.end(), s.begin(), s.end());
    }
    Metric m = PlainMetric(scaled / count, "ms");
    m.raw = raw / count;
    m.samples = all.size();
    m.tail_pct = TailPct(all.size());
    if (m.tail_pct > 0) m.tail_value = Quantile(all, m.tail_pct / 100.0);
    return m;
  };

  auto is = [](const char* cls) {
    return [cls](const Net& n) { return n.cls == cls; };
  };
  const auto every = [](const Net&) { return true; };
  const auto table4 = [](const Net& n) { return n.cls != "n30"; };

  const auto start = Clock::now();
  if (options.trace) {
    // One untraced and one traced round: the traced pass gives the layer
    // numbers, the pair gives the tracing overhead.
    Spans untraced(false);
    const double untraced_s = round(nullptr, untraced, every);
    msn::obs::RunStats registry;
    msn::obs::StatsSink sink(&registry);
    double traced_s = 0.0;
    {
      const Spans::Scope measure(spans, "measure");
      traced_s = round(&sink, spans, every);
    }
    AddCoreLayerMetrics(Registry::FromJsonText(registry.JsonString()),
                        &out.metrics);
    double run_ms = 0.0;
    for (const char* cls : kClasses) {
      const double ms = spans.InclusiveMs(std::string("core.msri.") + cls);
      const auto solved = std::count_if(nets.begin(), nets.end(), is(cls));
      run_ms += ms;
      out.metrics[std::string("core.msri.run_ms.") + cls] =
          PlainMetric(ms / static_cast<double>(solved), "ms");
    }
    out.metrics["core.msri.run_ms"] =
        PlainMetric(run_ms / static_cast<double>(nets.size()), "ms");
    out.metrics["core.ard.compute_us"] = PlainMetric(Median(ard_us), "us");
    out.metrics["io.read_net_ms"] =
        PlainMetric(spans.InclusiveMs("io.read_net") / 3.0, "ms");
    out.metrics["bench.trace_overhead_pct"] =
        PlainMetric((traced_s / untraced_s - 1.0) * 100.0, "%");
  } else {
    // The 30-pin net once, then Table IV rounds for the rest of the run.
    round(nullptr, spans, is("n30"));
    do {
      round(nullptr, spans, table4);
    } while (Seconds(start, Clock::now()) < options.seconds);
    host.Sample();
    out.metrics["dp_ri10_ms"] = class_metric(is("ri10"));
    out.metrics["dp_ri20_ms"] = class_metric(is("ri20"));
    out.metrics["dp_ds20_ms"] = class_metric(is("ds20"));
    Metric n30_s = class_metric(is("n30"));
    n30_s.unit = "s";
    n30_s.value /= 1e3;
    n30_s.raw /= 1e3;
    n30_s.tail_value /= 1e3;
    out.metrics["dp_n30_s"] = n30_s;
    // The gated figures leave the 30-pin net out: its one solve a run is
    // memory-bound and follows the host reference too loosely (17% spread
    // between runs where Table IV nets kept 4%); its work is gated
    // exactly by its counters instead (test_counters.py).
    const Metric table4_ms = class_metric(table4);
    out.metrics["op_ms"] = table4_ms;
    out.metrics["heavy_ms"] = out.metrics["dp_ri20_ms"];
    // Correct Table IV solves per second at the per-net time above.
    Metric ok = PlainMetric(
        Ratio(static_cast<double>(ok_nets) / static_cast<double>(out.attempted),
              table4_ms.value / 1e3),
        "1/s");
    ok.samples = out.attempted;
    out.metrics["ok_per_s"] = ok;
    out.metrics["setup_s"] = TimingMetric(setup_reps, host, "s", 1e-3);
  }

  std::ostringstream counts;
  counts << "{";
  bool first = true;
  for (const auto& [name, v] : n30_counts) {
    counts << (first ? "" : ",") << JsonStr(name) << ":" << JsonNum(v);
    first = false;
  }
  counts << "}";
  out.detail["n30_counters"] = counts.str();
  out.detail["host"] = host.Json();
  return out;
}

}  // namespace perfbench
