// serve_mix: an in-process service::Server (2 pool threads, in-memory
// cache) on loopback TCP, driven open loop at a fixed offered rate.
//
// The nets are fixed corpora, so that every seed times the same work:
// popular net n (popularity rank n) is `msn_cli gen --terminals 5+n%8
// --seed n+1`, novel net i is `gen --terminals 5+(200+i)%8 --seed 1000+i`.
// The seed generates the request schedule: kNovelShare of the requests,
// at seeded positions and in seeded order, each ask for a novel net (one
// never requested before); the rest draw a popular net under Zipf(1).
// A warm phase requests every popular net once, so the measured phase is
// mostly cache hits (JSON parsing, canonicalization, cache lookup, pool
// queueing) with a steady trickle of misses that run the DP.  One
// generator connection sends each request at its due time regardless of
// replies; latency runs from the due time, so a stall delays every
// request behind it.  Every answer is checked against a direct RunMsri ->
// Summarize of the same net.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/msri.h"
#include "harness.h"
#include "io/netfile.h"
#include "layers.h"
#include "netgen/netgen.h"
#include "obs/stats.h"
#include "service/cache.h"
#include "service/canonical.h"
#include "service/json.h"
#include "service/server.h"
#include "tech/tech.h"

namespace perfbench {
namespace {

constexpr std::size_t kPopular = 200;
constexpr double kNovelShare = 0.05;
constexpr std::uint64_t kNovelSeedBase = 1000;
/// Offered rate, requests/s: about 60% of the highest rate the server
/// sustained on the reference machine (see README.md), frozen so that
/// every commit is measured under the same load.
constexpr double kRate = 800.0;
constexpr std::size_t kJobs = 2;
constexpr std::size_t kWindows = 10;
/// The generator fell behind when its p99 send lag exceeds this.
constexpr double kMaxSendLagP99Ms = 5.0;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a 64-bit draw.
double Unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

struct Workload {
  std::vector<std::string> texts;   ///< .msn text, popular nets first.
  std::vector<msn::RcTree> trees;   ///< `texts` parsed back.
  std::vector<std::size_t> schedule;  ///< Net index of each request.
  std::size_t novel = 0;
};

/// The seeded inputs: the request schedule and the nets it names.
Workload Generate(std::uint64_t seed, std::size_t requests,
                  const msn::Technology& tech, Spans& spans) {
  Workload w;
  std::uint64_t state = Mix(seed ^ 0x5e27e5e27ull);
  auto draw = [&state] { return state = Mix(state); };

  // Zipf(1) over popularity ranks.
  std::vector<double> cdf(kPopular);
  double sum = 0.0;
  for (std::size_t r = 0; r < kPopular; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
  }
  // Exactly kNovelShare of the requests are novel: seeded positions, and
  // the novel nets in seeded order.
  w.novel = static_cast<std::size_t>(std::lround(kNovelShare *
                                                 static_cast<double>(requests)));
  auto shuffle = [&draw](std::vector<std::size_t>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[draw() % i]);
    }
  };
  std::vector<std::size_t> novel_at(requests), novel_order(w.novel);
  for (std::size_t i = 0; i < requests; ++i) novel_at[i] = i < w.novel;
  for (std::size_t i = 0; i < w.novel; ++i) novel_order[i] = kPopular + i;
  shuffle(&novel_at);
  shuffle(&novel_order);
  std::size_t next_novel = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (novel_at[i] != 0) {
      w.schedule.push_back(novel_order[next_novel++]);
    } else {
      const double u = Unit(draw()) * sum;
      const auto r = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      w.schedule.push_back(std::min(r, kPopular - 1));
    }
  }

  {
    const Spans::Scope gen(spans, "gen");
    for (std::size_t n = 0; n < kPopular + w.novel; ++n) {
      msn::NetConfig cfg;
      cfg.seed = n < kPopular ? n + 1 : kNovelSeedBase + (n - kPopular);
      cfg.num_terminals = 5 + n % 8;
      std::ostringstream os;
      msn::WriteNet(os, msn::BuildExperimentNet(cfg, tech));
      w.texts.push_back(os.str());
    }
  }
  const Spans::Scope read(spans, "io.read_net");
  for (const std::string& text : w.texts) {
    std::istringstream is(text);
    w.trees.push_back(msn::ReadNet(is));
  }
  return w;
}

std::string RequestLine(std::size_t k, const std::string& net_text) {
  return "{\"op\":\"optimize\",\"id\":\"q" + std::to_string(k) +
         "\",\"net\":\"" + msn::obs::JsonEscape(net_text) + "\"}\n";
}

/// The body an optimize answer must carry (everything after its id),
/// rendered from a direct RunMsri of the same net.
std::string ExpectedBody(const msn::RcTree& tree, const msn::Technology& tech,
                         msn::MsriSummary* summary_out) {
  const msn::MsriOptions opt;
  const msn::MsriSummary s = msn::Summarize(msn::RunMsri(tree, tech, opt));
  auto point = [](std::ostringstream& os, const msn::TradeoffSummary* p) {
    if (p == nullptr) {
      os << "null";
      return;
    }
    os << '[' << msn::obs::JsonNumber(p->cost) << ','
       << msn::obs::JsonNumber(p->ard_ps) << ',' << p->num_repeaters << ']';
  };
  std::ostringstream os;
  os << "\"ok\":true,\"fingerprint\":\""
     << msn::service::Canonicalize(tree, tech, opt).fingerprint.Hex()
     << "\",\"pareto_points\":" << s.pareto.size() << ",\"pareto\":[";
  for (std::size_t i = 0; i < s.pareto.size(); ++i) {
    if (i > 0) os << ',';
    point(os, &s.pareto[i]);
  }
  os << "],\"min_cost\":";
  point(os, s.MinCost());
  os << ",\"min_ard\":";
  point(os, s.MinArd());
  os << '}';
  *summary_out = s;
  return os.str();
}

/// Removes the `"trace_id":"<16 hex>",` member every response carries.
std::string StripTraceId(std::string line) {
  static const std::string kKey = "\"trace_id\":\"";
  const std::size_t at = line.find(kKey);
  if (at != std::string::npos && at + kKey.size() + 18 <= line.size()) {
    line.erase(at, kKey.size() + 18);
  }
  return line;
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// A running server plus one client connection to it.
class Session {
 public:
  explicit Session(const msn::Technology& tech) {
    msn::service::ServerOptions opt;
    opt.jobs = kJobs;
    server_ = std::make_unique<msn::service::Server>(tech, opt);
    thread_ = std::thread([this] { server_->ServeTcp(0, log_); });
    while (server_->BoundPort() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->BoundPort());
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      throw std::runtime_error("serve_mix: cannot connect to the server");
    }
    // Each request leaves at its due time, not when Nagle releases it.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Sends shutdown, drains the connection to EOF and joins the server.
  ~Session() {
    ::shutdown(fd_, SHUT_RD);
    WriteAll(fd_, "{\"op\":\"shutdown\",\"id\":\"bye\"}\n");
    char buf[4096];
    while (::recv(fd_, buf, sizeof(buf), 0) > 0) {
    }
    thread_.join();
    ::close(fd_);
  }

  int Fd() const { return fd_; }

 private:
  std::ostringstream log_;
  std::unique_ptr<msn::service::Server> server_;
  std::thread thread_;
  int fd_ = -1;
};

/// Collects response lines on its own thread, keyed by request index.
class Receiver {
 public:
  Receiver(int fd, std::size_t requests)
      : fd_(fd), lines_(requests), at_(requests) {
    thread_ = std::thread([this] { Loop(); });
  }
  /// Stops reading (a later recv sees EOF) and joins the thread.
  ~Receiver() {
    ::shutdown(fd_, SHUT_RD);
    thread_.join();
  }

  /// Waits until `count` request answers arrived or `timeout` passed.
  bool WaitFor(std::size_t count, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return answered_ >= count; });
  }
  std::size_t Answered() {
    const std::lock_guard<std::mutex> lock(mu_);
    return answered_;
  }
  /// Blocks until the stats answer arrived (or the connection closed).
  std::string Stats() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !stats_.empty() || closed_; });
    return stats_;
  }

  std::string Line(std::size_t k) {
    const std::lock_guard<std::mutex> lock(mu_);
    return lines_[k];
  }
  Clock::time_point At(std::size_t k) {
    const std::lock_guard<std::mutex> lock(mu_);
    return at_[k];
  }

 private:
  void Loop() {
    std::string buf;
    char chunk[65536];
    for (;;) {
      // The server does not disable Nagle, so each small answer waits for
      // the ACK of the previous one; a delayed ACK would then hold every
      // answer until the next request.  Quick-ack mode is not sticky, so
      // it is re-armed before every read.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      const auto now = Clock::now();
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        Deliver(buf.substr(start, nl - start), now);
      }
      buf.erase(0, start);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  void Deliver(std::string line, Clock::time_point now) {
    static const std::string kId = "{\"id\":\"q";
    const std::lock_guard<std::mutex> lock(mu_);
    if (line.rfind(kId, 0) == 0) {
      const std::size_t k = std::strtoull(line.c_str() + kId.size(), nullptr,
                                          10);
      if (k < lines_.size() && lines_[k].empty()) {
        lines_[k] = std::move(line);
        at_[k] = now;
        ++answered_;
      }
    } else if (line.rfind("{\"id\":\"stats\"", 0) == 0) {
      stats_ = std::move(line);
    }
    cv_.notify_all();
  }

  int fd_;
  std::vector<std::string> lines_;
  std::vector<Clock::time_point> at_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t answered_ = 0;
  std::string stats_;
  bool closed_ = false;
  std::thread thread_;
};

/// Per-layer numbers of the service path measured from outside the
/// server: canonicalization and cache insert/lookup of the popular nets.
void ProbeService(const Workload& w, const msn::Technology& tech,
                  const std::vector<msn::MsriSummary>& summaries,
                  Spans& spans, std::map<std::string, Metric>* metrics) {
  const Spans::Scope probe(spans, "probe");
  const msn::MsriOptions opt;
  std::vector<msn::service::CanonicalRequest> canon;
  std::vector<double> canon_us, insert_us, lookup_us;
  {
    const Spans::Scope s(spans, "service.canonicalize");
    for (std::size_t n = 0; n < kPopular; ++n) {
      const auto t0 = Clock::now();
      canon.push_back(msn::service::Canonicalize(w.trees[n], tech, opt));
      canon_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
  }
  msn::service::SolutionCache cache{msn::service::CacheConfig{}};
  {
    const Spans::Scope s(spans, "service.cache");
    for (std::size_t n = 0; n < kPopular; ++n) {
      const auto t0 = Clock::now();
      cache.Insert(canon[n], summaries[n]);
      insert_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    for (std::size_t n = 0; n < kPopular; ++n) {
      const auto t0 = Clock::now();
      const bool hit = cache.Lookup(canon[n]).has_value();
      lookup_us.push_back(Seconds(t0, Clock::now()) * 1e6);
      if (!hit) throw std::runtime_error("serve_mix: cache probe lost a net");
    }
  }
  (*metrics)["service.canonicalize_us"] = PlainMetric(Median(canon_us), "us");
  (*metrics)["service.cache_insert_us"] = PlainMetric(Median(insert_us), "us");
  (*metrics)["service.cache_lookup_us"] = PlainMetric(Median(lookup_us), "us");
}

/// The server's own counters, read from its stats document.
void AddServerMetrics(const std::string& stats_line,
                      std::map<std::string, Metric>* metrics) {
  const msn::service::JsonValue doc =
      msn::service::JsonValue::Parse(stats_line);
  const auto num = [&doc](const char* object, const char* field) {
    const auto* o = doc.Find(object);
    const auto* v = o != nullptr ? o->Find(field) : nullptr;
    return v != nullptr ? v->AsNumber() : 0.0;
  };
  const Registry reg = Registry::FromJson(*doc.Find("registry"));
  AddCoreLayerMetrics(reg, metrics);
  (*metrics)["core.msri.run_ms"] = PlainMetric(
      Ratio(reg.TimerMs("msri.total"), reg.TimerCalls("msri.total")), "ms");
  const double hits = num("cache", "hits");
  (*metrics)["service.hit_ratio"] =
      PlainMetric(Ratio(hits, hits + num("cache", "misses")), "ratio");
  (*metrics)["service.dp_runs"] = PlainMetric(num("requests", "dp_runs"), "count");
  (*metrics)["service.shed"] = PlainMetric(
      num("requests", "shed_queue") + num("requests", "shed_cost"), "count");
  const auto* latency = doc.Find("latency");
  const auto p50 = [latency](const char* cls) {
    const auto* c = latency != nullptr ? latency->Find(cls) : nullptr;
    return c != nullptr ? c->Find("p50_us")->AsNumber() / 1e3 : 0.0;
  };
  (*metrics)["service.latency_hit_p50_ms"] = PlainMetric(p50("hit"), "ms");
  (*metrics)["service.latency_miss_p50_ms"] = PlainMetric(p50("miss"), "ms");
}

}  // namespace

Outcome RunServeMix(const Options& options, Spans& spans) {
  Outcome out;
  const msn::Technology tech = msn::DefaultTechnology();
  const auto requests =
      static_cast<std::size_t>(std::floor(kRate * options.seconds));
  if (requests < 100) {
    throw std::runtime_error("serve_mix: too few requests at this rate");
  }

  // Set-up, three times (median reported): generate and parse the
  // inputs, start the server, connect.
  HostRef host;
  std::vector<Timed> setup_reps;
  Workload w;
  std::unique_ptr<Session> session;
  for (int i = 0; i < 3; ++i) {
    session.reset();
    host.Sample(2);
    const Spans::Scope setup(spans, "setup");
    const auto t0 = Clock::now();
    w = Generate(options.seed, requests, tech, spans);
    {
      const Spans::Scope start(spans, "server.start");
      session = std::make_unique<Session>(tech);
    }
    setup_reps.push_back(Timed{t0, Seconds(t0, Clock::now()) * 1e3});
  }
  const std::size_t total = kPopular + requests;  // Warm + measured.
  std::vector<std::string> lines(total);
  for (std::size_t n = 0; n < kPopular; ++n) {
    lines[n] = RequestLine(n, w.texts[n]);
  }
  for (std::size_t i = 0; i < requests; ++i) {
    lines[kPopular + i] = RequestLine(kPopular + i, w.texts[w.schedule[i]]);
  }

  auto receiver = std::make_unique<Receiver>(session->Fd(), total);
  bool io_ok = true;
  {
    // Warm phase: every popular net once, pipelined, unmeasured.
    const Spans::Scope warm(spans, "warm");
    for (std::size_t n = 0; n < kPopular; ++n) {
      io_ok = io_ok && WriteAll(session->Fd(), lines[n]);
    }
    io_ok = io_ok && receiver->WaitFor(kPopular, std::chrono::seconds(60));
  }

  // Measured phase.  In the traced run the first half sends untraced and
  // the second half records one span per send: the p50 difference is the
  // tracing overhead.
  const std::size_t traced_from =
      options.trace ? requests / 2 : requests;
  std::vector<Clock::time_point> due(requests);
  std::vector<double> lag_ms(requests);
  std::size_t backlog_end = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto interval = std::chrono::duration<double>(1.0 / kRate);
  {
    const Spans::Scope loop(spans, "open_loop");
    for (std::size_t i = 0; i < requests && io_ok; ++i) {
      due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
      std::this_thread::sleep_until(due[i]);
      lag_ms[i] = Seconds(due[i], Clock::now()) * 1e3;
      if (i >= traced_from) {
        const Spans::Scope send(spans, "client.send");
        io_ok = WriteAll(session->Fd(), lines[kPopular + i]);
      } else {
        io_ok = WriteAll(session->Fd(), lines[kPopular + i]);
      }
    }
    backlog_end = kPopular + requests - receiver->Answered();
  }
  {
    const Spans::Scope drain(spans, "drain");
    receiver->WaitFor(total, std::chrono::seconds(60));
  }
  WriteAll(session->Fd(), "{\"op\":\"stats\",\"id\":\"stats\"}\n");
  const std::string stats_line = receiver->Stats();

  // Verification: every answer against a direct RunMsri -> Summarize.
  std::vector<std::string> body(w.trees.size());
  std::vector<msn::MsriSummary> summaries(w.trees.size());
  std::vector<char> needed(w.trees.size(), 0);
  for (std::size_t n = 0; n < kPopular; ++n) needed[n] = 1;
  for (const std::size_t n : w.schedule) needed[n] = 1;
  {
    const Spans::Scope verify(spans, "verify");
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      for (std::size_t n; (n = next.fetch_add(1)) < w.trees.size();) {
        if (needed[n]) body[n] = ExpectedBody(w.trees[n], tech, &summaries[n]);
      }
    };
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::min(4u, hw); ++t) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
  }
  std::map<std::string, std::uint64_t> outcomes;
  auto check = [&](std::size_t k, std::size_t net) {
    const std::string line = receiver->Line(k);
    const char* kind = "ok";
    if (line.empty()) {
      kind = "missing";
    } else if (line.find("\"overloaded\":true") != std::string::npos) {
      kind = "shed";
    } else if (line.find("\"timeout\":true") != std::string::npos) {
      kind = "timeout";
    } else if (line.find("\"cancelled\":true") != std::string::npos) {
      kind = "cancelled";
    } else if (line.find("\"ok\":false") != std::string::npos) {
      kind = "error";
    } else if (StripTraceId(line) != "{\"id\":\"q" + std::to_string(k) +
                                         "\"," + body[net]) {
      kind = "mismatch";
    }
    ++outcomes[kind];
    ++out.attempted;
    const bool ok = std::strcmp(kind, "ok") == 0;
    if (!ok) ++out.failed;
    return ok;
  };
  for (std::size_t n = 0; n < kPopular; ++n) check(n, n);
  std::vector<double> latency_ms, untraced_ms, traced_ms;
  std::vector<double> miss_ms;  // Requests for novel nets: DP runs.
  std::size_t ok_measured = 0;
  Clock::time_point last = t0;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t k = kPopular + i;
    double ms = std::numeric_limits<double>::infinity();
    if (check(k, w.schedule[i])) {
      ms = Seconds(due[i], receiver->At(k)) * 1e3;
      last = std::max(last, receiver->At(k));
      ++ok_measured;
    }
    latency_ms.push_back(ms);
    (i < traced_from ? untraced_ms : traced_ms).push_back(ms);
    if (w.schedule[i] >= kPopular) miss_ms.push_back(ms);
  }

  // Latency percentiles per window of kWindows equal slices of the
  // schedule; the reported figure is their median over windows, so one
  // unusually large novel net moves one window, not the result.  Unlike
  // the other timings, latencies are not host-scaled: the reference
  // kernel runs while the server idles, and scaling by it widened the
  // run-to-run spread of both the hit and the miss latency.
  auto windowed = [&](const std::vector<double>& ms, double q) {
    std::vector<double> per_window;
    for (std::size_t k = 0; k < kWindows; ++k) {
      per_window.push_back(Quantile(
          std::vector<double>(
              ms.begin() + static_cast<long>(k * requests / kWindows),
              ms.begin() + static_cast<long>((k + 1) * requests / kWindows)),
          q));
    }
    return Median(per_window);
  };
  const double lag_p99 = Quantile(lag_ms, 0.99);
  const double lag_max = *std::max_element(lag_ms.begin(), lag_ms.end());
  if (!io_ok) {
    out.valid = false;
    out.invalid_reason = "connection to the server failed";
  } else if (lag_p99 > kMaxSendLagP99Ms) {
    out.valid = false;
    out.invalid_reason = "generator fell behind: p99 send lag " +
                         JsonNum(lag_p99) + " ms";
  }

  Metric p50m = PlainMetric(windowed(latency_ms, 0.50), "ms");
  p50m.samples = requests;
  Metric p99m = PlainMetric(windowed(latency_ms, 0.99), "ms");
  p99m.samples = requests;
  p99m.tail_pct = 99;
  p99m.tail_value = Quantile(latency_ms, 0.99);
  Metric rps = PlainMetric(
      Ratio(static_cast<double>(ok_measured), Seconds(t0, last)), "1/s");
  rps.samples = requests;
  out.metrics["serve_p50_ms"] = p50m;
  out.metrics["serve_p99_ms"] = p99m;
  out.metrics["serve_ok_rps"] = rps;
  Metric miss = PlainMetric(Median(miss_ms), "ms");
  miss.samples = miss_ms.size();
  miss.tail_pct = TailPct(miss_ms.size());
  if (miss.tail_pct > 0) miss.tail_value = Quantile(miss_ms, miss.tail_pct / 100.0);
  out.metrics["serve_miss_ms"] = miss;
  out.metrics["op_ms"] = p50m;
  out.metrics["heavy_ms"] = miss;
  out.metrics["ok_per_s"] = rps;
  out.metrics["setup_s"] = TimingMetric(setup_reps, host, "s", 1e-3);

  if (options.trace) {
    AddServerMetrics(stats_line, &out.metrics);
    ProbeService(w, tech, summaries, spans, &out.metrics);
    out.metrics["io.read_net_ms"] =
        PlainMetric(spans.InclusiveMs("io.read_net") / 3.0, "ms");
    out.metrics["bench.trace_overhead_pct"] = PlainMetric(
        (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
  }

  std::ostringstream counts;
  counts << "{";
  bool first = true;
  for (const auto& [kind, n] : outcomes) {
    counts << (first ? "" : ",") << JsonStr(kind) << ":" << n;
    first = false;
  }
  counts << "}";
  out.detail["outcomes"] = counts.str();
  out.detail["host"] = host.Json();
  out.detail["generator"] =
      "{\"offered_rps\":" + JsonNum(kRate) +
      ",\"requests\":" + std::to_string(requests) +
      ",\"novel\":" + std::to_string(w.novel) +
      ",\"warm\":" + std::to_string(kPopular) +
      ",\"send_lag_max_ms\":" + JsonNum(lag_max) +
      ",\"send_lag_p99_ms\":" + JsonNum(lag_p99) +
      ",\"backlog_end\":" + std::to_string(backlog_end) +
      ",\"connections\":1,\"client_threads\":2}";
  receiver.reset();
  session.reset();
  return out;
}

}  // namespace perfbench
