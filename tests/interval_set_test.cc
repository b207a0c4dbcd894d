#include "common/interval_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/numeric.h"

namespace msn {
namespace {

TEST(Interval, EmptyAndLength) {
  EXPECT_TRUE((Interval{2.0, 2.0}).Empty());
  EXPECT_TRUE((Interval{3.0, 1.0}).Empty());
  EXPECT_FALSE((Interval{1.0, 3.0}).Empty());
  EXPECT_DOUBLE_EQ((Interval{1.0, 3.0}).Length(), 2.0);
  EXPECT_DOUBLE_EQ((Interval{3.0, 1.0}).Length(), 0.0);
}

TEST(Interval, ContainsHalfOpen) {
  const Interval i{1.0, 2.0};
  EXPECT_TRUE(i.Contains(1.0));
  EXPECT_TRUE(i.Contains(1.5));
  EXPECT_FALSE(i.Contains(2.0));
  EXPECT_FALSE(i.Contains(0.99));
}

TEST(IntervalSet, DefaultIsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_FALSE(s.Contains(0.0));
  EXPECT_DOUBLE_EQ(s.TotalLength(), 0.0);
}

TEST(IntervalSet, SingletonConstructor) {
  IntervalSet s(1.0, 4.0);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(1.0));
  EXPECT_TRUE(s.Contains(3.999));
  EXPECT_FALSE(s.Contains(4.0));
  EXPECT_DOUBLE_EQ(s.TotalLength(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
}

TEST(IntervalSet, EmptyIntervalYieldsEmptySet) {
  EXPECT_TRUE(IntervalSet(2.0, 2.0).Empty());
  EXPECT_TRUE(IntervalSet(5.0, 2.0).Empty());
}

TEST(IntervalSet, CanonicalizationMergesOverlaps) {
  IntervalSet s(std::vector<Interval>{
      Interval{0.0, 2.0}, Interval{1.0, 3.0}, Interval{5.0, 6.0}});
  EXPECT_EQ(s.Size(), 2u);
  EXPECT_EQ(s, IntervalSet(std::vector<Interval>{Interval{0.0, 3.0}, Interval{5.0, 6.0}}));
}

TEST(IntervalSet, CanonicalizationMergesAdjacent) {
  IntervalSet s(std::vector<Interval>{Interval{0.0, 1.0}, Interval{1.0, 2.0}});
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(1.0));
}

TEST(IntervalSet, NonNegativeRealsIsUnbounded) {
  const IntervalSet s = IntervalSet::NonNegativeReals();
  EXPECT_TRUE(s.Contains(0.0));
  EXPECT_TRUE(s.Contains(1e18));
  EXPECT_FALSE(s.Contains(-0.001));
  EXPECT_TRUE(std::isinf(s.TotalLength()));
}

TEST(IntervalSet, UnionDisjointAndOverlapping) {
  const IntervalSet a(0.0, 2.0);
  const IntervalSet b(5.0, 7.0);
  EXPECT_EQ(a.Union(b).Size(), 2u);
  const IntervalSet c(1.0, 6.0);
  EXPECT_EQ(a.Union(b).Union(c), IntervalSet(0.0, 7.0));
}

TEST(IntervalSet, IntersectBasic) {
  const IntervalSet a(
      std::vector<Interval>{Interval{0.0, 4.0}, Interval{6.0, 9.0}});
  const IntervalSet b(std::vector<Interval>{Interval{2.0, 7.0}});
  EXPECT_EQ(a.Intersect(b),
            IntervalSet(std::vector<Interval>{Interval{2.0, 4.0}, Interval{6.0, 7.0}}));
  EXPECT_EQ(b.Intersect(a), a.Intersect(b));
}

TEST(IntervalSet, IntersectWithEmpty) {
  EXPECT_TRUE(IntervalSet(0.0, 5.0).Intersect(IntervalSet()).Empty());
  EXPECT_TRUE(IntervalSet().Intersect(IntervalSet(0.0, 5.0)).Empty());
}

TEST(IntervalSet, IntersectUnbounded) {
  const IntervalSet all = IntervalSet::NonNegativeReals();
  const IntervalSet a(3.0, 8.0);
  EXPECT_EQ(all.Intersect(a), a);
}

TEST(IntervalSet, SubtractMiddle) {
  const IntervalSet a(0.0, 10.0);
  const IntervalSet hole(3.0, 4.0);
  const IntervalSet d = a.Subtract(hole);
  EXPECT_EQ(d, IntervalSet(std::vector<Interval>{Interval{0.0, 3.0}, Interval{4.0, 10.0}}));
}

TEST(IntervalSet, SubtractEverything) {
  EXPECT_TRUE(IntervalSet(1.0, 2.0)
                  .Subtract(IntervalSet::NonNegativeReals())
                  .Empty());
}

TEST(IntervalSet, SubtractNothing) {
  const IntervalSet a(1.0, 2.0);
  EXPECT_EQ(a.Subtract(IntervalSet()), a);
  EXPECT_EQ(a.Subtract(IntervalSet(5.0, 9.0)), a);
}

TEST(IntervalSet, SubtractMultipleHoles) {
  const IntervalSet a(0.0, 10.0);
  const IntervalSet holes(std::vector<Interval>{
      Interval{1.0, 2.0}, Interval{4.0, 5.0}, Interval{9.0, 20.0}});
  const IntervalSet d = a.Subtract(holes);
  EXPECT_EQ(d, IntervalSet(std::vector<Interval>{Interval{0.0, 1.0}, Interval{2.0, 4.0},
                             Interval{5.0, 9.0}}));
}

TEST(IntervalSet, SubtractFromUnbounded) {
  const IntervalSet all = IntervalSet::NonNegativeReals();
  const IntervalSet d = all.Subtract(IntervalSet(2.0, 3.0));
  EXPECT_TRUE(d.Contains(0.0));
  EXPECT_FALSE(d.Contains(2.5));
  EXPECT_TRUE(d.Contains(3.0));
  EXPECT_TRUE(d.Contains(1e12));
}

TEST(IntervalSet, SubtractInPlaceRewritesOnlyWhenItShrinks) {
  IntervalSet a(0.0, 10.0);
  std::vector<Interval> scratch = {{50.0, 60.0}};  // stale content
  const std::vector<Interval> miss = {{10.0, 20.0}};
  EXPECT_FALSE(a.SubtractInPlace(miss, scratch));
  EXPECT_EQ(a, IntervalSet(0.0, 10.0));
  const std::vector<Interval> holes = {{2.0, 3.0}, {9.0, 12.0}};
  EXPECT_TRUE(a.SubtractInPlace(holes, scratch));
  EXPECT_EQ(a, IntervalSet(std::vector<Interval>{Interval{0.0, 2.0},
                                                 Interval{3.0, 9.0}}));
  const std::vector<Interval> all = {{0.0, kInf}};
  EXPECT_TRUE(a.SubtractInPlace(all, scratch));
  EXPECT_TRUE(a.Empty());
}

TEST(IntervalSet, IntersectIntoReplacesBufferContent) {
  std::vector<Interval> out = {{50.0, 60.0}};  // stale content
  const IntervalSet a(std::vector<Interval>{Interval{0.0, 2.0},
                                            Interval{4.0, 8.0}});
  IntersectInto(a.Intervals(), IntervalSet(1.0, 5.0).Intervals(), out);
  EXPECT_EQ(out, (std::vector<Interval>{{1.0, 2.0}, {4.0, 5.0}}));
  IntersectInto(a.Intervals(), IntervalSet(2.0, 4.0).Intervals(), out);
  EXPECT_TRUE(out.empty());
}

TEST(IntervalSet, ShiftPositive) {
  const IntervalSet a(1.0, 3.0);
  EXPECT_EQ(a.Shift(2.0), IntervalSet(3.0, 5.0));
}

TEST(IntervalSet, ShiftNegativeClipsAtZero) {
  const IntervalSet a(1.0, 3.0);
  EXPECT_EQ(a.Shift(-2.0), IntervalSet(0.0, 1.0));
  EXPECT_TRUE(a.Shift(-3.0).Empty());
}

TEST(IntervalSet, ShiftUnboundedStaysUnbounded) {
  const IntervalSet all = IntervalSet::NonNegativeReals();
  const IntervalSet s = all.Shift(-5.0);
  EXPECT_TRUE(s.Contains(0.0));
  EXPECT_TRUE(s.Contains(1e15));
}

TEST(IntervalSet, MinOfEmptyThrows) {
  EXPECT_THROW(IntervalSet().Min(), CheckError);
}

TEST(IntervalSet, ContainsBinarySearchManyIntervals) {
  std::vector<Interval> iv;
  for (int i = 0; i < 100; ++i) {
    iv.push_back({static_cast<double>(2 * i),
                  static_cast<double>(2 * i + 1)});
  }
  const IntervalSet s(std::move(iv));
  EXPECT_EQ(s.Size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.Contains(2.0 * i + 0.5));
    EXPECT_FALSE(s.Contains(2.0 * i + 1.5));
  }
}

}  // namespace
}  // namespace msn
