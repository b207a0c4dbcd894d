#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

int TailPct(std::size_t n) {
  if (n <= 10) return 0;
  const double d = static_cast<double>(n);
  const int pct =
      std::min(99, static_cast<int>(std::floor(100.0 * (d - 10.0) / d)));
  return pct >= 50 ? pct : 0;
}

namespace {

constexpr std::size_t kNear = 5;
/// The kernel's time at the reference speed: its median on an Intel Xeon
/// (4 vCPUs) outside slow spells.
constexpr double kNominalMs = 1.2;
constexpr int kKernelIters = 5000;

double KernelMs() {
  // Keeps the result alive without sharing it between sampling threads.
  static thread_local volatile double sink = 0.0;
  const auto t0 = Clock::now();
  std::vector<std::vector<double>> ring;
  std::uint64_t x = 3;
  double acc = 0.0;
  for (int i = 0; i < kKernelIters; ++i) {
    std::vector<double> v;
    const int n = 4 + i % 13;
    for (int k = 0; k < n; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v.push_back(std::sqrt(static_cast<double>(x >> 20)));
    }
    acc += *std::max_element(v.begin(), v.end());
    ring.push_back(std::move(v));
    if (ring.size() > 64) ring.erase(ring.begin());
  }
  sink = sink + acc;
  return Seconds(t0, Clock::now()) * 1e3;
}

}  // namespace

void HostRef::Sample(int n, int threads) {
  auto run = [this, n] {
    for (int i = 0; i < n; ++i) {
      const auto start = Clock::now();
      const double ms = KernelMs();
      const std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(Timed{start, ms});
    }
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(run);
  run();
  for (std::thread& t : helpers) t.join();
}

void HostRef::StartBackground(std::chrono::milliseconds period) {
  stop_ = false;
  thread_ = std::thread([this, period] {
    for (auto next = Clock::now(); !stop_; next += period) {
      Sample();
      std::this_thread::sleep_until(next + period);
    }
  });
}

void HostRef::StopBackground() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double HostRef::ScaleOver(Clock::time_point from, Clock::time_point to) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 1.0;
  std::vector<double> inside;
  for (const Timed& s : samples_) {
    if (s.start >= from && s.start <= to) inside.push_back(s.ms);
  }
  if (inside.size() >= kNear) return kNominalMs / Median(inside);
  const auto mid = from + (to - from) / 2;
  std::vector<std::pair<double, double>> by_distance;  // (|dt| s, ms)
  for (const Timed& s : samples_) {
    by_distance.emplace_back(std::fabs(Seconds(s.start, mid)), s.ms);
  }
  const std::size_t k = std::min(kNear, by_distance.size());
  std::partial_sort(by_distance.begin(),
                    by_distance.begin() + static_cast<long>(k),
                    by_distance.end());
  std::vector<double> near;
  for (std::size_t i = 0; i < k; ++i) near.push_back(by_distance[i].second);
  return kNominalMs / Median(near);
}

double HostRef::Scaled(const Timed& rep) const {
  const auto end = rep.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       rep.ms));
  return rep.ms * ScaleOver(rep.start, end);
}

std::string HostRef::Json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> ms;
  for (const Timed& s : samples_) ms.push_back(s.ms);
  return "{\"samples\":" + std::to_string(ms.size()) +
         ",\"nominal_ms\":" + JsonNum(kNominalMs) +
         ",\"median_ms\":" + JsonNum(Median(ms)) +
         ",\"min_ms\":" + JsonNum(ms.empty() ? 0.0 : *std::min_element(ms.begin(), ms.end())) +
         ",\"max_ms\":" + JsonNum(ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end())) + "}";
}

Metric TimingMetric(const std::vector<Timed>& reps, const HostRef& host,
                    const std::string& unit, double per_ms) {
  std::vector<double> scaled, raw;
  for (const Timed& r : reps) {
    scaled.push_back(host.Scaled(r) * per_ms);
    raw.push_back(r.ms * per_ms);
  }
  Metric m;
  m.value = Median(scaled);
  m.raw = Median(raw);
  m.unit = unit;
  m.samples = reps.size();
  m.tail_pct = TailPct(reps.size());
  if (m.tail_pct > 0) m.tail_value = Quantile(scaled, m.tail_pct / 100.0);
  return m;
}

Metric PlainMetric(double value, const std::string& unit) {
  Metric m;
  m.value = value;
  m.unit = unit;
  return m;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

Spans::Scope::Scope(Spans& spans, const std::string& name) : spans_(spans) {
  if (!spans_.enabled_) return;
  index_ = static_cast<long>(spans_.spans_.size());
  spans_.spans_.push_back(Span{name, Clock::now(), {}, spans_.open_});
  spans_.open_ = index_;
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = spans_.spans_[static_cast<std::size_t>(index_)];
  span.end = Clock::now();
  spans_.open_ = span.parent;
}

std::map<std::string, double> Spans::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = Seconds(spans_[i].start, spans_[i].end) * 1e3;
  }
  // Spans nest strictly (one recording thread), so children cover
  // disjoint parts of their parent's interval.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          Seconds(s.start, s.end) * 1e3;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

double Spans::InclusiveMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += Seconds(s.start, s.end) * 1e3;
  }
  return total;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ',';
    out << "{\"name\":" << JsonStr(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNum(Seconds(origin_, s.start) * 1e6)
        << ",\"dur\":" << JsonNum(Seconds(s.start, s.end) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return out.good();
}

std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = in.good();
  std::ostringstream os;
  if (*ok) os << in.rdbuf();
  return os.str();
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
