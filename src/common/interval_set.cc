#include "common/interval_set.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/check.h"
#include "common/numeric.h"

namespace msn {
namespace {

/// out = a minus b, for sorted, disjoint a and b.  Returns true iff b
/// overlaps a, i.e. iff out covers less than a.
bool SubtractInto(std::span<const Interval> a, std::span<const Interval> b,
                  std::vector<Interval>& out) {
  out.clear();
  bool overlapped = false;
  auto j = b.begin();
  for (Interval rem : a) {
    while (!rem.Empty()) {
      // Skip subtrahend intervals entirely to the left of `rem`.
      while (j != b.end() && j->hi <= rem.lo) ++j;
      if (j == b.end() || j->lo >= rem.hi) {
        out.push_back(rem);
        break;
      }
      overlapped = true;
      if (j->lo > rem.lo) out.push_back({rem.lo, j->lo});
      rem.lo = j->hi;  // Continue with the part right of the subtrahend.
    }
  }
  return overlapped;
}

}  // namespace

IntervalSet::IntervalSet(double lo, double hi) {
  if (lo < hi) intervals_.push_back({lo, hi});
}

IntervalSet::IntervalSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  Canonicalize();
}

IntervalSet IntervalSet::NonNegativeReals() { return IntervalSet(0.0, kInf); }

void IntervalSet::Canonicalize() {
  std::erase_if(intervals_, [](const Interval& i) { return i.Empty(); });
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  for (const Interval& i : intervals_) {
    if (!merged.empty() && i.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, i.hi);
    } else {
      merged.push_back(i);
    }
  }
  intervals_ = std::move(merged);
}

bool IntervalSet::Contains(double x) const {
  // Binary search for the first interval with lo > x, then check its
  // predecessor.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), x,
      [](double v, const Interval& i) { return v < i.lo; });
  if (it == intervals_.begin()) return false;
  return std::prev(it)->Contains(x);
}

double IntervalSet::TotalLength() const {
  double total = 0.0;
  for (const Interval& i : intervals_) total += i.Length();
  return total;
}

double IntervalSet::Min() const {
  MSN_CHECK_MSG(!Empty(), "Min() of empty IntervalSet");
  return intervals_.front().lo;
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  std::vector<Interval> all = intervals_;
  all.insert(all.end(), other.intervals_.begin(), other.intervals_.end());
  return IntervalSet(std::move(all));
}

void IntersectInto(std::span<const Interval> a, std::span<const Interval> b,
                   std::vector<Interval>& out) {
  out.clear();
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const double lo = std::max(i->lo, j->lo);
    const double hi = std::min(i->hi, j->hi);
    if (lo < hi) out.push_back({lo, hi});
    // Advance whichever interval ends first.
    if (i->hi < j->hi) {
      ++i;
    } else {
      ++j;
    }
  }
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  IntervalSet result;
  IntersectInto(intervals_, other.intervals_, result.intervals_);
  return result;
}

IntervalSet IntervalSet::Subtract(const IntervalSet& other) const {
  IntervalSet result;
  SubtractInto(intervals_, other.intervals_, result.intervals_);
  return result;
}

bool IntervalSet::SubtractInPlace(std::span<const Interval> region,
                                  std::vector<Interval>& scratch) {
  if (!SubtractInto(intervals_, region, scratch)) return false;
  intervals_.assign(scratch.begin(), scratch.end());
  return true;
}

IntervalSet IntervalSet::Shift(double delta, double clip_lo) const {
  std::vector<Interval> out;
  out.reserve(intervals_.size());
  for (const Interval& i : intervals_) {
    const double lo = std::max(i.lo + delta, clip_lo);
    const double hi = std::isinf(i.hi) ? i.hi : i.hi + delta;
    if (lo < hi) out.push_back({lo, hi});
  }
  IntervalSet result;
  result.intervals_ = std::move(out);
  return result;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& s) {
  os << '{';
  bool first = true;
  for (const Interval& i : s.Intervals()) {
    if (!first) os << ", ";
    first = false;
    os << '[' << i.lo << ", " << i.hi << ')';
  }
  return os << '}';
}

}  // namespace msn
