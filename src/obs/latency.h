// Live latency telemetry: a log-bucketed latency histogram with a
// time-sliced sliding window, giving cheap p50/p95/p99 estimates over the
// recent past ("right now") alongside cumulative totals ("since start").
//
// Buckets follow obs::Histogram's scheme exactly — bucket 0 counts values
// <= 1, bucket i counts (2^(i-1), 2^i] — so the quantile of a latency in
// microseconds is reported as the power-of-two upper bound of its bucket:
// a conservative (upper) estimate that is exact at bucket edges and always
// monotone in q.
//
// The sliding window is kNumSlices time slices of kSliceSeconds each
// (6 x 10s = a 60s window).  Record() lazily resets the slice a value
// lands in when its epoch slice number has moved on; Snapshot() merges
// only the slices that are still inside the window.  `now` is an explicit
// parameter everywhere so unit tests can drive virtual time.
//
// Thread safety: none — like every obs instrument, callers serialize
// access (the server records and snapshots under its stats mutex).
#ifndef MSN_OBS_LATENCY_H
#define MSN_OBS_LATENCY_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/stats.h"

namespace msn::obs {

class LatencyHistogram {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kNumBuckets = Histogram::kNumBuckets;
  static constexpr std::size_t kNumSlices = 6;
  static constexpr std::chrono::seconds kSliceSeconds{10};

  /// The log2 bucket a value lands in (same scheme as obs::Histogram).
  static std::size_t BucketIndex(double v);
  /// Inclusive upper bound of bucket i: 1 for bucket 0, else 2^i.
  static double BucketBound(std::size_t i) {
    return static_cast<double>(std::uint64_t{1}
                               << (i < 64 ? i : std::size_t{63}));
  }

  /// Records one latency observation (microseconds) at time `now`.
  void Record(double us, Clock::time_point now);

  struct Snapshot {
    std::uint64_t count = 0;         ///< Cumulative observations.
    std::uint64_t window_count = 0;  ///< Observations inside the window.
    double mean_us = 0.0;            ///< Cumulative mean.
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
  };

  /// Quantiles come from the sliding window when it holds any samples,
  /// else from the cumulative buckets (so a final shutdown snapshot long
  /// after traffic stopped still reports the run's distribution).
  Snapshot Snap(Clock::time_point now) const;

  std::uint64_t Count() const { return cumulative_.Count(); }

  /// Quantile upper bound from a 64-bucket count array: the bound of the
  /// first bucket whose cumulative count reaches rank ceil(q * total).
  /// Returns 0 when total is 0.  Exposed for unit tests.
  static double QuantileFromBuckets(const std::uint64_t* buckets, double q);

  /// JSON object for the service stats document:
  /// {"count":..,"window_count":..,"mean_us":..,"p50_us":..,"p95_us":..,
  ///  "p99_us":..,"buckets":[[bound,count],...]} — buckets are cumulative,
  /// bounds rendered as exact integers.
  void WriteJson(std::ostream& os, Clock::time_point now) const;

 private:
  /// Epoch slice number of `t` (monotone, one per kSliceSeconds).
  static std::int64_t SliceNumber(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::seconds>(
               t.time_since_epoch())
               .count() /
           kSliceSeconds.count();
  }

  struct Slice {
    std::int64_t slice_no = -1;  ///< -1 = never used.
    std::uint64_t count = 0;
    std::uint64_t buckets[kNumBuckets] = {};
  };

  Histogram cumulative_;
  Slice slices_[kNumSlices];
};

}  // namespace msn::obs

#endif  // MSN_OBS_LATENCY_H
