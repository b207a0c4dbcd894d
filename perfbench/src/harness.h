// Shared pieces of the msn benchmark program: options, the result every
// workload returns, sample statistics, and the in-memory span recorder of
// the traced run.
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock readings.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< Scratch files (designs) live under here.
  std::string golden_dir;  ///< Committed reference outputs.
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 for derived counts and ratios).
  std::size_t samples = 0;
  /// The same statistic before host-speed scaling (0 when not scaled).
  double raw = 0.0;
  /// Highest percentile with at least ten samples beyond it, and its
  /// value; pct 0 when there are too few samples for any.
  int tail_pct = 0;
  double tail_value = 0.0;
};

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run itself is unusable (not merely some failed ops).
  bool valid = true;
  std::string invalid_reason;
  std::map<std::string, Metric> metrics;
  /// Workload-specific detail, rendered as JSON members of the detail line.
  std::map<std::string, std::string> detail;
};

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; +inf samples sort last.
double Quantile(std::vector<double> v, double q);
/// Highest whole percentile with at least ten of `n` samples beyond it
/// (0 when there is none at or above the median).
int TailPct(std::size_t n);

/// One timed repetition.
struct Timed {
  Clock::time_point start;
  double ms = 0.0;
};

/// Host-speed reference.  The machines this benchmark runs on slow down
/// by up to 2x for seconds to minutes at a time (other tenants; it shows
/// in thread CPU time as much as in wall time).  A fixed CPU kernel of
/// small-vector allocation, square roots and max scans, which slows down
/// with the library's DP to within a few percent, is timed between
/// repetitions while the workload is idle; every timing is then scaled to
/// what it would have been at the kernel's nominal speed.  Scaled values
/// are the reported metrics, raw ones are kept beside them.
class HostRef {
 public:
  HostRef() = default;
  HostRef(const HostRef&) = delete;
  HostRef& operator=(const HostRef&) = delete;
  ~HostRef() { StopBackground(); }

  /// Times the kernel `n` times on each of `threads` threads at once,
  /// recording when and how long.
  void Sample(int n = 1, int threads = 1);
  /// Keeps sampling on a thread of its own, one kernel per `period`, until
  /// StopBackground().  For serial workloads only, whose other cores idle.
  void StartBackground(std::chrono::milliseconds period);
  void StopBackground();
  /// Nominal kernel time over the median kernel time around [from, to]:
  /// the samples taken inside it when there are at least kNear of them,
  /// else the kNear samples nearest to its midpoint.
  double ScaleOver(Clock::time_point from, Clock::time_point to) const;
  /// `rep.ms` scaled to nominal host speed.
  double Scaled(const Timed& rep) const;
  /// {"samples":..,"nominal_ms":..,"median_ms":..,"min_ms":..,"max_ms":..}
  std::string Json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Timed> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A timing over a run's repetitions: the median of the host-scaled
/// samples, the highest percentile with at least ten samples beyond it,
/// the sample count, and the raw median.  `per_ms` converts ms to `unit`.
Metric TimingMetric(const std::vector<Timed>& reps, const HostRef& host,
                    const std::string& unit, double per_ms = 1.0);
/// A value with no sample distribution (counts, ratios, traced numbers).
Metric PlainMetric(double value, const std::string& unit);

/// Process peak resident set size in MiB.
double PeakRssMb();

/// The traced run's own spans: name, start, end and parent, kept in
/// memory and written out at the end.  Recording happens on the thread
/// that runs the workload; a disabled recorder costs one branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool Enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Spans& spans, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    long index_ = -1;
  };

  /// Self time per span name (duration minus the time covered by child
  /// spans), summed over every span of that name, in ms.
  std::map<std::string, double> SelfMs() const;
  /// Inclusive time of every span named `name`, summed, in ms.
  double InclusiveMs(const std::string& name) const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    long parent = -1;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  long open_ = -1;
};

/// Deterministic 64-bit FNV-1a digest (golden comparison of large text).
std::uint64_t Fnv1a64(const std::string& text);

/// Reads a whole file; `ok` reports whether it could be opened.
std::string ReadFile(const std::string& path, bool* ok);

std::string JsonStr(const std::string& s);
std::string JsonNum(double v);

Outcome RunDpNets(const Options& options, Spans& spans);
Outcome RunClosureDesign(const Options& options, Spans& spans);
Outcome RunServeMix(const Options& options, Spans& spans);

/// Golden text for the workload (development mode).
std::string DpNetsGolden();
std::string ClosureGolden();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
