#include "obs/trace.h"

#include <atomic>
#include <ostream>
#include <random>
#include <sstream>

#include "obs/stats.h"

namespace msn::obs {

namespace {

/// splitmix64 finalizer: bijective on 64-bit, so distinct counter values
/// yield distinct, well-spread ids.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t NewTraceId() {
  // Seeded once per process, so a restarted server does not hand out
  // (and overwrite the trace files of) its predecessor's ids.
  static std::atomic<std::uint64_t> counter{[] {
    std::random_device entropy;
    return (std::uint64_t{entropy()} << 32) ^ entropy();
  }()};
  std::uint64_t id = 0;
  while (id == 0) {
    id = Mix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

std::string TraceIdHex(std::uint64_t id) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[id & 0xf];
    id >>= 4;
  }
  return out;
}

void Trace::WriteChromeTrace(std::ostream& os) const {
  // Complete ("ph":"X") events; ts/dur in microseconds relative to the
  // earliest span start.  pid/tid are nominal — a Trace is thread-confined,
  // so everything lands on one row per trace.
  std::chrono::steady_clock::time_point epoch;
  bool have_epoch = false;
  for (const TraceSpan& s : spans_) {
    if (!have_epoch || s.start < epoch) {
      epoch = s.start;
      have_epoch = true;
    }
  }
  const std::string trace_hex = TraceIdString();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& s : spans_) {
    const double ts_us =
        std::chrono::duration<double, std::micro>(s.start - epoch).count();
    const double dur_us =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << JsonEscape(s.name)
       << "\",\"cat\":\"msn\",\"ph\":\"X\",\"ts\":" << JsonNumber(ts_us)
       << ",\"dur\":" << JsonNumber(dur_us)
       << ",\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":\"" << trace_hex
       << "\",\"span_id\":" << s.span_id << ",\"parent_id\":" << s.parent_id
       << "}}";
  }
  os << "],\"otherData\":{\"trace_id\":\"" << trace_hex
     << "\",\"dropped_spans\":" << dropped_ << "}}";
}

std::string Trace::ChromeTraceString() const {
  std::ostringstream os;
  WriteChromeTrace(os);
  return os.str();
}

}  // namespace msn::obs
