// IntervalSet: a finite union of disjoint half-open real intervals [lo, hi).
//
// Used by the MFS pruner (src/core/mfs.*) to track the region of the
// external-capacitance axis on which a dynamic-programming solution is still
// potentially optimal.  Intervals may extend to +infinity on the right.
//
// The representation is a sorted vector of non-overlapping, non-adjacent
// intervals; all operations restore that canonical form.
//
// Intersection and difference also exist at buffer level (IntersectInto,
// IntervalSet::SubtractInPlace): they write into a caller-owned
// std::vector<Interval>, so a caller that reuses its buffers stops
// allocating once their capacity covers the largest result.  The MFS
// dominance test runs on such buffers, one set per ComputeMfs call;
// Intersect and Subtract run the same merges.
#ifndef MSN_COMMON_INTERVAL_SET_H
#define MSN_COMMON_INTERVAL_SET_H

#include <iosfwd>
#include <span>
#include <vector>

namespace msn {

/// Half-open interval [lo, hi); hi may be +infinity.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Empty() const { return !(lo < hi); }
  double Length() const { return Empty() ? 0.0 : hi - lo; }
  bool Contains(double x) const { return lo <= x && x < hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// out = a ∩ b, by a linear merge of two sorted, disjoint interval
/// sequences (an IntervalSet's Intervals(), or a buffer filled by this
/// function).  Clears `out` first; `out` must not alias an input.
void IntersectInto(std::span<const Interval> a, std::span<const Interval> b,
                   std::vector<Interval>& out);

/// A canonical union of disjoint intervals supporting the set algebra the
/// MFS pruner needs: union, intersection, difference, shift and queries.
class IntervalSet {
 public:
  /// The empty set.
  IntervalSet() = default;

  /// Singleton set {[lo, hi)}; an empty interval yields the empty set.
  IntervalSet(double lo, double hi);

  /// Builds from arbitrary (possibly overlapping, unsorted) intervals.
  explicit IntervalSet(std::vector<Interval> intervals);

  /// The whole domain used by MFS: [0, +inf).
  static IntervalSet NonNegativeReals();

  bool Empty() const { return intervals_.empty(); }
  std::size_t Size() const { return intervals_.size(); }
  const std::vector<Interval>& Intervals() const { return intervals_; }

  bool Contains(double x) const;

  /// Total measure; +inf if any interval is unbounded.
  double TotalLength() const;

  /// Smallest point of the set (undefined on empty set — checked).
  double Min() const;

  IntervalSet Union(const IntervalSet& other) const;
  IntervalSet Intersect(const IntervalSet& other) const;
  /// Set difference: *this minus `other`.
  IntervalSet Subtract(const IntervalSet& other) const;

  /// *this minus `region` (sorted and disjoint), built in `scratch`.  The
  /// stored intervals are rewritten, reusing their capacity, only when
  /// `region` overlaps the set.  Returns true iff the set shrank.
  bool SubtractInPlace(std::span<const Interval> region,
                       std::vector<Interval>& scratch);

  /// Translates every interval by `delta` (negative deltas allowed); the
  /// result is clipped to [clip_lo, +inf).  MFS uses delta = -cap_shift with
  /// clip_lo = 0 when re-expressing a child's validity domain in the
  /// parent's external-capacitance coordinate.
  IntervalSet Shift(double delta, double clip_lo = 0.0) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  void Canonicalize();

  std::vector<Interval> intervals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& s);

}  // namespace msn

#endif  // MSN_COMMON_INTERVAL_SET_H
