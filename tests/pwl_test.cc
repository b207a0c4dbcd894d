#include "core/pwl.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace msn {
namespace {

/// f.RegionLessEqual(g, eps) as a set.  Also checks that the raw output
/// is already canonical: rebuilding it through the sorting constructor
/// must not change it.
IntervalSet Region(const Pwl& f, const Pwl& g, double eps = 0.0) {
  std::vector<Interval> out = {{7.0, 8.0}};  // stale content is cleared
  f.RegionLessEqual(g, eps, out);
  const IntervalSet set(out);
  EXPECT_EQ(set.Intervals(), out) << "RegionLessEqual output not canonical";
  return set;
}

TEST(Pwl, DefaultIsNegInf) {
  Pwl f;
  EXPECT_TRUE(f.IsNegInf());
  EXPECT_EQ(f.Eval(0.0), -kInf);
  EXPECT_EQ(f.Eval(123.0), -kInf);
}

TEST(Pwl, ConstantAndLineEval) {
  const Pwl c = Pwl::Constant(5.0);
  EXPECT_DOUBLE_EQ(c.Eval(0.0), 5.0);
  EXPECT_DOUBLE_EQ(c.Eval(100.0), 5.0);
  const Pwl l = Pwl::Line(2.0, 3.0);
  EXPECT_DOUBLE_EQ(l.Eval(0.0), 2.0);
  EXPECT_DOUBLE_EQ(l.Eval(4.0), 14.0);
}

TEST(Pwl, EvalNegativeThrows) {
  EXPECT_THROW(Pwl::Constant(1.0).Eval(-0.5), CheckError);
}

TEST(Pwl, AddScalarAndSlope) {
  Pwl f = Pwl::Line(1.0, 2.0);
  f.AddScalar(10.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 11.0);
  f.AddSlope(0.5);
  EXPECT_DOUBLE_EQ(f.Eval(2.0), 11.0 + 2.5 * 2.0);
}

TEST(Pwl, AddScalarOnNegInfIsNoop) {
  Pwl f;
  f.AddScalar(5.0);
  f.AddSlope(2.0);
  EXPECT_TRUE(f.IsNegInf());
}

TEST(Pwl, ShiftLine) {
  const Pwl f = Pwl::Line(1.0, 2.0);
  const Pwl g = f.Shifted(3.0);
  // g(x) = f(x+3) = 1 + 2(x+3) = 7 + 2x.
  EXPECT_DOUBLE_EQ(g.Eval(0.0), 7.0);
  EXPECT_DOUBLE_EQ(g.Eval(1.0), 9.0);
}

TEST(Pwl, ShiftByZeroIsIdentity) {
  const Pwl f = Pwl::Max(Pwl::Line(0.0, 2.0), Pwl::Line(5.0, 1.0));
  EXPECT_TRUE(Pwl::ApproxEqual(f, f.Shifted(0.0)));
}

TEST(Pwl, ShiftNegativeThrows) {
  EXPECT_THROW(Pwl::Line(0.0, 1.0).Shifted(-1.0), CheckError);
}

TEST(Pwl, ShiftDropsLeftSegments) {
  // max(5 + 0x, 0 + 1x): breakpoint at x = 5.
  const Pwl f = Pwl::Max(Pwl::Constant(5.0), Pwl::Line(0.0, 1.0));
  ASSERT_EQ(f.NumSegments(), 2u);
  // Shift by 10: only the steep segment remains.
  const Pwl g = f.Shifted(10.0);
  EXPECT_EQ(g.NumSegments(), 1u);
  EXPECT_DOUBLE_EQ(g.Eval(0.0), 10.0);
  EXPECT_DOUBLE_EQ(g.Eval(2.0), 12.0);
}

TEST(Pwl, MaxOfTwoLinesCrossing) {
  // f = 10 + 0x, g = 0 + 2x; cross at x = 5.
  const Pwl m = Pwl::Max(Pwl::Constant(10.0), Pwl::Line(0.0, 2.0));
  ASSERT_EQ(m.NumSegments(), 2u);
  EXPECT_DOUBLE_EQ(m.Eval(0.0), 10.0);
  EXPECT_DOUBLE_EQ(m.Eval(5.0), 10.0);
  EXPECT_DOUBLE_EQ(m.Eval(7.0), 14.0);
  EXPECT_TRUE(m.IsConvexNonDecreasing());
}

TEST(Pwl, MaxOfParallelLines) {
  const Pwl m = Pwl::Max(Pwl::Line(1.0, 2.0), Pwl::Line(3.0, 2.0));
  EXPECT_EQ(m.NumSegments(), 1u);
  EXPECT_DOUBLE_EQ(m.Eval(10.0), 23.0);
}

TEST(Pwl, MaxWithNegInf) {
  const Pwl f = Pwl::Line(1.0, 2.0);
  EXPECT_TRUE(Pwl::ApproxEqual(Pwl::Max(f, Pwl::NegInf()), f));
  EXPECT_TRUE(Pwl::ApproxEqual(Pwl::Max(Pwl::NegInf(), f), f));
  EXPECT_TRUE(Pwl::Max(Pwl::NegInf(), Pwl::NegInf()).IsNegInf());
}

TEST(Pwl, MaxOfIdenticalFunctions) {
  const Pwl f = Pwl::Max(Pwl::Constant(4.0), Pwl::Line(0.0, 1.0));
  const Pwl m = Pwl::Max(f, f);
  EXPECT_TRUE(Pwl::ApproxEqual(m, f));
}

TEST(Pwl, MaxThreeWayCriticalSourceSwap) {
  // Mirrors the paper's Fig. 3: two arrival lines with slopes 7 and 12
  // whose max switches the critical source at the crossing.
  const Pwl au = Pwl::Line(100.0, 12.0);  // Closer source, more resistance.
  const Pwl aw = Pwl::Line(130.0, 7.0);
  const Pwl m = Pwl::Max(au, aw);
  ASSERT_EQ(m.NumSegments(), 2u);
  // Crossing at x = 30/5 = 6: below, aw wins; above, au wins.
  EXPECT_DOUBLE_EQ(m.Eval(0.0), 130.0);
  EXPECT_DOUBLE_EQ(m.Eval(6.0), 172.0);
  EXPECT_DOUBLE_EQ(m.Eval(10.0), 220.0);
  EXPECT_EQ(m.Segments()[0].slope, 7.0);
  EXPECT_EQ(m.Segments()[1].slope, 12.0);
}

TEST(Pwl, RegionLessEqualConstant) {
  const Pwl f = Pwl::Constant(5.0);
  const Pwl g = Pwl::Constant(7.0);
  EXPECT_EQ(Region(f, g), IntervalSet::NonNegativeReals());
  EXPECT_TRUE(Region(g, f).Empty());
}

TEST(Pwl, RegionLessEqualCrossing) {
  // f = 10, g = 2x: f <= g for x >= 5.
  const Pwl f = Pwl::Constant(10.0);
  const Pwl g = Pwl::Line(0.0, 2.0);
  const IntervalSet r = Region(f, g);
  EXPECT_FALSE(r.Contains(4.9));
  EXPECT_TRUE(r.Contains(5.0));
  EXPECT_TRUE(r.Contains(1e9));
  // The mirrored region is half-open at the crossing ([0, 5)): losing the
  // single boundary point only makes MFS pruning slightly conservative.
  const IntervalSet r2 = Region(g, f);
  EXPECT_TRUE(r2.Contains(0.0));
  EXPECT_TRUE(r2.Contains(4.999));
  EXPECT_FALSE(r2.Contains(5.1));
}

TEST(Pwl, RegionLessEqualMergesAcrossBreakpoints) {
  // f = max(x, 5) has a breakpoint at 5; f <= 10 holds on both of its
  // segments, and the two pieces come out as one interval [0, 10).
  const Pwl f = Pwl::Max(Pwl::Line(0.0, 1.0), Pwl::Constant(5.0));
  ASSERT_EQ(f.NumSegments(), 2u);
  EXPECT_EQ(Region(f, Pwl::Constant(10.0)), IntervalSet(0.0, 10.0));
}

TEST(Pwl, RegionLessEqualWithBottom) {
  const Pwl f;
  const Pwl g = Pwl::Constant(0.0);
  EXPECT_EQ(Region(f, g), IntervalSet::NonNegativeReals());
  EXPECT_TRUE(Region(g, f).Empty());
  EXPECT_EQ(Region(f, f), IntervalSet::NonNegativeReals());
}

TEST(Pwl, RegionLessEqualEps) {
  const Pwl f = Pwl::Constant(5.0);
  const Pwl g = Pwl::Constant(4.9999999);
  EXPECT_TRUE(Region(f, g, 1e-3).Contains(1.0));
  EXPECT_TRUE(Region(f, g, 0.0).Empty());
}

TEST(Pwl, EpsilonCloseBreakpointsDoNotInflateSegments) {
  // Regression for segment-count stability: breakpoints that drift apart
  // by rounding noise used to survive the exact-equality dedup as
  // near-zero-width segments and inflate counts through the whole DP.
  const Pwl f = Pwl::Max(Pwl::Constant(5.0), Pwl::Line(0.0, 1.0));
  ASSERT_EQ(f.NumSegments(), 2u);
  // The same function, its crossover shifted by ~1 ulp-scale noise.
  const Pwl g =
      Pwl::Max(Pwl::Constant(5.0 * (1.0 + 1e-13)), Pwl::Line(0.0, 1.0));
  ASSERT_EQ(g.NumSegments(), 2u);
  const Pwl m = Pwl::Max(f, g);
  EXPECT_EQ(m.NumSegments(), 2u);

  // Stability under accumulation: maxing in many noise-perturbed copies
  // must not grow the representation.
  Pwl acc = m;
  for (int i = 0; i < 50; ++i) {
    const Pwl noisy = Pwl::Max(
        Pwl::Constant(5.0 + static_cast<double>(i) * 1e-14),
        Pwl::Line(static_cast<double>(i) * 1e-15, 1.0));
    acc = Pwl::Max(acc, noisy);
  }
  EXPECT_LE(acc.NumSegments(), 3u);
  EXPECT_NEAR(acc.Eval(0.0), 5.0, 1e-9);
  EXPECT_NEAR(acc.Eval(10.0), 10.0, 1e-9);
}

TEST(Pwl, ManySegmentsSpillAndCopySemantics) {
  // Upper envelope of 8 lines (slope i, intercept 100 - i^2): every line
  // appears, with crossovers at x = 1, 3, 5, ... — more segments than
  // the inline arena holds, so this exercises the heap-spill path and
  // the copy/move transitions between inline and heap storage.
  Pwl f = Pwl::NegInf();
  for (int i = 0; i < 8; ++i) {
    f = Pwl::Max(f, Pwl::Line(100.0 - static_cast<double>(i * i),
                              static_cast<double>(i)));
  }
  ASSERT_EQ(f.NumSegments(), 8u);
  EXPECT_TRUE(f.IsConvexNonDecreasing());
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 100.0);
  EXPECT_DOUBLE_EQ(f.Eval(4.0), 104.0);   // Line i = 2: 96 + 2x.
  EXPECT_DOUBLE_EQ(f.Eval(20.0), 191.0);  // Line i = 7: 51 + 7x.

  Pwl copy = f;  // heap -> heap copy
  EXPECT_TRUE(Pwl::ApproxEqual(copy, f));
  copy = Pwl::Line(1.0, 1.0);  // heap -> inline assignment
  EXPECT_EQ(copy.NumSegments(), 1u);
  copy = f;  // inline -> heap assignment
  EXPECT_TRUE(Pwl::ApproxEqual(copy, f));
  const Pwl moved = std::move(copy);
  EXPECT_TRUE(Pwl::ApproxEqual(moved, f));
  Pwl small = Pwl::Line(2.0, 3.0);
  const Pwl small_moved = std::move(small);
  EXPECT_DOUBLE_EQ(small_moved.Eval(1.0), 5.0);
}

TEST(Pwl, ConvexityDetection) {
  EXPECT_TRUE(Pwl::Constant(3.0).IsConvexNonDecreasing());
  EXPECT_TRUE(Pwl::Line(0.0, 5.0).IsConvexNonDecreasing());
  EXPECT_FALSE(Pwl::Line(0.0, -1.0).IsConvexNonDecreasing());
}

/// Property: Max agrees with pointwise eval on random convex inputs built
/// the way the DP builds them (max of random lines, shifted and offset).
class PwlRandomProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Pwl RandomConvex(Rng& rng) {
    Pwl f = Pwl::NegInf();
    const int lines = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < lines; ++i) {
      f = Pwl::Max(
          f, Pwl::Line(rng.UniformReal(0.0, 200.0),
                       rng.UniformReal(0.0, 20.0)));
    }
    return f;
  }
};

TEST_P(PwlRandomProperty, MaxMatchesPointwise) {
  Rng rng(GetParam());
  const Pwl f = RandomConvex(rng);
  const Pwl g = RandomConvex(rng);
  const Pwl m = Pwl::Max(f, g);
  EXPECT_TRUE(m.IsConvexNonDecreasing(1e-6));
  for (int i = 0; i < 200; ++i) {
    const double x = rng.UniformReal(0.0, 50.0);
    EXPECT_NEAR(m.Eval(x), std::max(f.Eval(x), g.Eval(x)), 1e-9)
        << "x = " << x;
  }
}

TEST_P(PwlRandomProperty, ShiftCommutesWithEval) {
  Rng rng(GetParam());
  const Pwl f = RandomConvex(rng);
  const double delta = rng.UniformReal(0.0, 10.0);
  const Pwl g = f.Shifted(delta);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.UniformReal(0.0, 40.0);
    EXPECT_NEAR(g.Eval(x), f.Eval(x + delta), 1e-9);
  }
}

TEST_P(PwlRandomProperty, MaxIsCommutativeAndAssociative) {
  Rng rng(GetParam());
  const Pwl f = RandomConvex(rng);
  const Pwl g = RandomConvex(rng);
  const Pwl h = RandomConvex(rng);
  EXPECT_TRUE(Pwl::ApproxEqual(Pwl::Max(f, g), Pwl::Max(g, f), 1e-9));
  EXPECT_TRUE(Pwl::ApproxEqual(Pwl::Max(Pwl::Max(f, g), h),
                               Pwl::Max(f, Pwl::Max(g, h)), 1e-9));
}

TEST_P(PwlRandomProperty, ShiftDistributesOverMax) {
  Rng rng(GetParam());
  const Pwl f = RandomConvex(rng);
  const Pwl g = RandomConvex(rng);
  const double d = rng.UniformReal(0.0, 8.0);
  EXPECT_TRUE(Pwl::ApproxEqual(Pwl::Max(f, g).Shifted(d),
                               Pwl::Max(f.Shifted(d), g.Shifted(d)), 1e-9));
}

TEST_P(PwlRandomProperty, RegionLessEqualMatchesPointwise) {
  Rng rng(GetParam());
  const Pwl f = RandomConvex(rng);
  const Pwl g = RandomConvex(rng);
  const IntervalSet region = Region(f, g, 1e-12);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.UniformReal(0.0, 60.0);
    const bool leq = f.Eval(x) <= g.Eval(x) + 1e-9;
    const bool in = region.Contains(x);
    // Allow disagreement only within eps of a boundary.
    if (in != leq) {
      EXPECT_NEAR(f.Eval(x), g.Eval(x), 1e-6) << "x = " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PwlRandomProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace msn
