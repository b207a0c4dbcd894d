// Piece-wise linear functions of the external capacitance c_E
// (paper Section IV-C, Definition 4.1 and the primitives of eq. (3)).
//
// A Pwl represents a total function on [0, +inf) as a sorted list of line
// segments (x_lo, intercept, slope); segment i covers
// [x_lo_i, x_lo_{i+1}) and the last segment extends to +inf.  The empty
// segment list represents the identically -inf function ("bottom"), used
// for the arrival function of a sink-only subtree and the diameter of a
// subtree with no internal source/sink pair.
//
// The four primitives the repeater-insertion DP needs (eq. (3)):
//   Max        — pointwise maximum (JoinSets; critical-source selection),
//   AddScalar  — add a constant (wire and intrinsic delays),
//   AddSlope   — add m·x (accumulating upstream resistance),
//   Shifted    — substitute x -> x + delta (re-expressing a child's
//                function after the external world gains delta pF).
// All run in time linear in the number of participating segments: Max and
// RegionLessEqual walk both inputs with two pointers instead of
// binary-searching per merged breakpoint.  RegionLessEqual, the MFS
// dominance test's region, writes canonical intervals into a buffer the
// caller owns and reuses, so it neither allocates in steady state nor
// sorts.
//
// Storage is a flat structure-of-arrays arena (PwlStore, pwl_arena.h):
// the x_lo / intercept / slope coordinates live in three contiguous
// spans, small functions entirely inline.  AddScalar and AddSlope are
// unit-stride loops over one span; Segments() adapts the columns back
// into PwlSegment values for tests and printing.
//
// In this DP every Pwl is convex and non-decreasing (maxima of lines under
// the primitives above stay convex), which keeps segment counts small in
// practice; the operations below are nevertheless correct for arbitrary
// piece-wise linear inputs.
#ifndef MSN_CORE_PWL_H
#define MSN_CORE_PWL_H

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/interval_set.h"
#include "common/numeric.h"
#include "core/pwl_arena.h"

namespace msn {

/// One line segment: f(x) = intercept + slope * x for x in
/// [x_lo, next segment's x_lo).
struct PwlSegment {
  double x_lo = 0.0;
  double intercept = 0.0;
  double slope = 0.0;

  double ValueAt(double x) const { return intercept + slope * x; }

  friend bool operator==(const PwlSegment&, const PwlSegment&) = default;
};

class Pwl {
 public:
  /// Indexable view adapting the SoA columns back into PwlSegment values
  /// (tests and printing; the hot paths read the columns directly).
  class SegmentView {
   public:
    explicit SegmentView(const PwlStore* store) : store_(store) {}
    std::size_t size() const { return store_->Size(); }
    PwlSegment operator[](std::size_t i) const {
      return {store_->XLo()[i], store_->Intercept()[i], store_->Slope()[i]};
    }

   private:
    const PwlStore* store_;
  };

  /// The identically -inf function.
  Pwl() = default;

  /// The constant function v on [0, inf).
  static Pwl Constant(double v);

  /// The line intercept + slope·x on [0, inf).
  static Pwl Line(double intercept, double slope);

  static Pwl NegInf() { return Pwl(); }

  bool IsNegInf() const { return store_.Empty(); }
  std::size_t NumSegments() const { return store_.Size(); }
  SegmentView Segments() const { return SegmentView(&store_); }

  /// f(x); x must be >= 0 (checked).  -inf for the bottom function.
  double Eval(double x) const;

  /// f(x) += s.  No-op on bottom.
  Pwl& AddScalar(double s);

  /// f(x) += m·x.  No-op on bottom.
  Pwl& AddSlope(double m);

  /// Returns g with g(x) = f(x + delta); delta must be >= 0 (checked).
  Pwl Shifted(double delta) const;

  /// Pointwise maximum.
  static Pwl Max(const Pwl& f, const Pwl& g);

  /// Writes {x >= 0 : f(x) <= g(x) + eps} into `out` (cleared first) as
  /// canonical IntervalSet intervals: sorted, disjoint, non-adjacent.  A
  /// bottom f yields [0, inf); a bottom g (with f not bottom) yields the
  /// empty set.  The sweep emits pieces left to right and merges each into
  /// the previous one it touches, so nothing is sorted, and a reused `out`
  /// allocates only when it outgrows its capacity.
  void RegionLessEqual(const Pwl& g, double eps,
                       std::vector<Interval>& out) const;

  /// True iff slopes are non-decreasing and the function is continuous —
  /// the invariant the repeater-insertion DP maintains (used in tests).
  bool IsConvexNonDecreasing(double eps = kEps) const;

  /// Value-wise approximate equality (same function up to eps at all
  /// breakpoints and segment midpoints).
  static bool ApproxEqual(const Pwl& f, const Pwl& g, double eps = kEps);

 private:
  /// The segment covering x (index).  Requires non-empty.
  std::size_t SegmentIndexAt(double x) const;

  PwlStore store_;
};

std::ostream& operator<<(std::ostream& os, const Pwl& f);

}  // namespace msn

#endif  // MSN_CORE_PWL_H
