#include "core/mfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace msn {
namespace {

SolutionPtr Make(double cost, double cap, double delay, Pwl arr, Pwl diam) {
  auto s = std::make_shared<MsriSolution>();
  s->cost = cost;
  s->cap = cap;
  s->sink_delay = delay;
  s->arr = std::move(arr);
  s->diam = std::move(diam);
  return s;
}

MfsOptions Quadratic() {
  MfsOptions o;
  o.mode = MfsOptions::Mode::kQuadratic;
  return o;
}

TEST(Mfs, FullyDominatedSolutionRemoved) {
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 10.0, Pwl::Line(5.0, 1.0), Pwl::NegInf()));
  set.push_back(Make(2.0, 2.0, 20.0, Pwl::Line(9.0, 2.0), Pwl::NegInf()));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0]->cost, 1.0);
}

TEST(Mfs, IncomparableScalarsBothSurvive) {
  SolutionSet set;
  set.push_back(Make(1.0, 5.0, 10.0, Pwl::Constant(0.0), Pwl::NegInf()));
  set.push_back(Make(5.0, 1.0, 10.0, Pwl::Constant(0.0), Pwl::NegInf()));
  EXPECT_EQ(ComputeMfs(set, Quadratic()).size(), 2u);
}

TEST(Mfs, PartialDomainPruning) {
  // s1 cheaper scalars; arr functions cross at x = 5: s1 wins for x > 5.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Constant(10.0), Pwl::NegInf()));
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Line(0.0, 2.0), Pwl::NegInf()));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 2u);
  // The constant one survives only where it's at most the line (x >= 5
  // minus eps effects), the line only where it's at most the constant.
  for (const SolutionPtr& s : out) {
    EXPECT_FALSE(s->valid.Empty());
    EXPECT_FALSE(s->valid == IntervalSet::NonNegativeReals());
  }
}

TEST(Mfs, IdenticalSolutionsKeepExactlyOne) {
  SolutionSet set;
  for (int i = 0; i < 4; ++i) {
    set.push_back(
        Make(3.0, 2.0, 7.0, Pwl::Line(1.0, 1.0), Pwl::Constant(5.0)));
  }
  EXPECT_EQ(ComputeMfs(set, Quadratic()).size(), 1u);
}

TEST(Mfs, OffModeKeepsEverything) {
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 1.0, Pwl::Constant(1.0), Pwl::NegInf()));
  set.push_back(Make(9.0, 9.0, 9.0, Pwl::Constant(9.0), Pwl::NegInf()));
  MfsOptions off;
  off.mode = MfsOptions::Mode::kOff;
  EXPECT_EQ(ComputeMfs(set, off).size(), 2u);
}

TEST(Mfs, BottomArrDominatesNothingButIsDominated) {
  // A sink-only solution (arr = -inf) is dominated by an identical
  // solution that also has -inf arr, but a source solution never prunes
  // a cheaper sink-only one.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 5.0, Pwl::NegInf(), Pwl::NegInf()));
  set.push_back(Make(2.0, 1.0, 5.0, Pwl::Constant(3.0), Pwl::NegInf()));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  // The -inf-arr solution dominates the other on every axis (cost lower,
  // arr -inf <= 3): only it survives.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0]->cost, 1.0);
}

TEST(Mfs, RespectsDominatorValidRegion) {
  // The dominator is only valid on [0, 2): it must not prune beyond.
  SolutionSet set;
  auto dom = Make(1.0, 1.0, 0.0, Pwl::Constant(0.0), Pwl::NegInf());
  dom->valid = IntervalSet(0.0, 2.0);
  auto victim = Make(2.0, 2.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf());
  set.push_back(dom);
  set.push_back(victim);
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 2u);
  const SolutionPtr& v = out[0]->cost == 2.0 ? out[0] : out[1];
  EXPECT_FALSE(v->valid.Contains(1.0));
  EXPECT_TRUE(v->valid.Contains(2.0));
  EXPECT_TRUE(v->valid.Contains(100.0));
}

TEST(Mfs, DiamDimensionBlocksPruning) {
  // Better cost/cap/arr but worse diam somewhere: no full prune there.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Constant(0.0),
                     Pwl::Line(0.0, 3.0)));
  set.push_back(Make(2.0, 2.0, 0.0, Pwl::Constant(1.0),
                     Pwl::Constant(10.0)));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 2u);
  // Victim (cost 2) survives exactly where dominator's diam exceeds 10,
  // i.e. x > 10/3.
  const SolutionPtr& v = out[0]->cost == 2.0 ? out[0] : out[1];
  EXPECT_FALSE(v->valid.Contains(3.0));
  EXPECT_TRUE(v->valid.Contains(4.0));
}

TEST(Mfs, CrossPruneSkipsNulledSlotsRegression) {
  // Regression for the divide-and-conquer cross-prune early-exit: with
  // base_case = 2 the set {c1/p5, c2/p1, c3/p6, c4/p2} (cost/cap, all
  // other dimensions identical) splits into left {c1, c2} and right
  // {c3, c4}, neither half prunes internally, and the cross pass goes:
  //   c1 prunes c3 (cheaper, smaller cap)  -> right slot 0 nulled;
  //   c2 must then prune c4 — but the old scan hit the nulled slot 0
  //   first and aborted c2's whole row, so the dominated c4 survived.
  auto build = [] {
    SolutionSet set;
    set.push_back(Make(1.0, 5.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    set.push_back(Make(2.0, 1.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    set.push_back(Make(3.0, 6.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    set.push_back(Make(4.0, 2.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    return set;
  };
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  dc.base_case = 2;
  const SolutionSet pruned = ComputeMfs(build(), dc);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_DOUBLE_EQ(pruned[0]->cost, 1.0);
  EXPECT_DOUBLE_EQ(pruned[1]->cost, 2.0);
  // The quadratic mode agrees.
  EXPECT_EQ(ComputeMfs(build(), Quadratic()).size(), 2u);
}

TEST(Mfs, PartialPruneCountsOnlyRealShrinkage) {
  // The dominator (cost 1) is no worse than each victim (cost 2) wherever
  // its arrival line lies below the victim's; the victims' valid regions
  // decide whether that region removes anything.
  const auto run = [](IntervalSet dom_valid, IntervalSet victim_valid) {
    SolutionSet set;
    set.push_back(Make(1.0, 1.0, 0.0, Pwl::Constant(5.0), Pwl::NegInf()));
    set.push_back(Make(2.0, 2.0, 0.0, Pwl::Line(0.0, 1.0), Pwl::NegInf()));
    set[0]->valid = std::move(dom_valid);
    set[1]->valid = std::move(victim_valid);
    MfsStats stats;
    const SolutionSet out = ComputeMfs(set, Quadratic(), &stats);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(stats.comparisons, 1u);  // the reverse test is skipped
    return std::pair(stats.pruned_partial, set[1]->valid);
  };
  // The region [5, inf) lies outside the victim's [0, 2): nothing shrinks.
  EXPECT_EQ(run(IntervalSet::NonNegativeReals(), IntervalSet(0.0, 2.0)),
            std::pair(std::size_t{0}, IntervalSet(0.0, 2.0)));
  // The two valid regions are disjoint: nothing shrinks.
  EXPECT_EQ(run(IntervalSet(6.0, kInf), IntervalSet(0.0, 2.0)),
            std::pair(std::size_t{0}, IntervalSet(0.0, 2.0)));
  // The region cuts [0, 10) down to [0, 6): one real partial prune.
  EXPECT_EQ(run(IntervalSet(6.0, kInf), IntervalSet(0.0, 10.0)),
            std::pair(std::size_t{1}, IntervalSet(0.0, 6.0)));
}

TEST(Mfs, ZeroBaseCaseIsRejected) {
  // A base case of 0 would never stop splitting a one-solution half.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
  set.push_back(Make(2.0, 2.0, 0.0, Pwl::Constant(2.0), Pwl::NegInf()));
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  dc.base_case = 0;
  EXPECT_THROW(ComputeMfs(set, dc), CheckError);
}

/// Asserts Definition 4.3 minimality: at no sampled external capacitance
/// is one survivor strictly better than another (beyond `margin`) in all
/// five dimensions while both claim validity there.  A violation means a
/// dominance test was skipped that should have run.
void ExpectMinimal(const SolutionSet& set, const std::vector<double>& xs,
                   double margin) {
  for (const SolutionPtr& a : set) {
    for (const SolutionPtr& b : set) {
      if (a == b || a->parity != b->parity) continue;
      if (a->stage_span_um > b->stage_span_um ||
          a->stage_diam_um > b->stage_diam_um) {
        continue;
      }
      for (const double x : xs) {
        if (!a->valid.Contains(x) || !b->valid.Contains(x)) continue;
        const bool strictly_dominated =
            a->cost <= b->cost - margin && a->cap <= b->cap - margin &&
            a->sink_delay <= b->sink_delay - margin &&
            a->arr.Eval(x) <= b->arr.Eval(x) - margin &&
            a->diam.Eval(x) <= b->diam.Eval(x) - margin;
        EXPECT_FALSE(strictly_dominated)
            << "survivor with cost " << b->cost
            << " is strictly dominated at x = " << x << " by cost "
            << a->cost;
      }
    }
  }
}

SolutionSet RandomSet(Rng& rng, int n) {
  SolutionSet set;
  for (int i = 0; i < n; ++i) {
    set.push_back(Make(rng.UniformReal(0.0, 4.0), rng.UniformReal(0.0, 2.0),
                       rng.UniformReal(0.0, 100.0),
                       Pwl::Line(rng.UniformReal(0.0, 200.0),
                                 rng.UniformReal(0.0, 30.0)),
                       Pwl::Line(rng.UniformReal(0.0, 300.0),
                                 rng.UniformReal(0.0, 30.0))));
  }
  return set;
}

/// A line with a random intercept and a slope in [min_slope, 30).
Pwl RandomLine(Rng& rng, double max_intercept, double min_slope = 0.0) {
  return Pwl::Line(rng.UniformReal(0.0, max_intercept),
                   rng.UniformReal(min_slope, 30.0));
}

/// Bottom with probability `bottom_p`, else the maximum of 2-3 random
/// lines (a convex PWL of up to three segments).  A negative `min_slope`
/// makes some of them fall before they rise (non-monotone).
Pwl RandomMultiSegment(Rng& rng, double max_intercept, double bottom_p,
                       double min_slope = 0.0) {
  if (rng.Chance(bottom_p)) return Pwl::NegInf();
  Pwl f = Pwl::Max(RandomLine(rng, max_intercept, min_slope),
                   RandomLine(rng, max_intercept, min_slope));
  if (rng.Chance(0.5)) {
    f = Pwl::Max(f, RandomLine(rng, max_intercept, min_slope));
  }
  return f;
}

/// [0, inf), sometimes cut off at the right, minus 0-2 random holes.
IntervalSet RandomValid(Rng& rng) {
  IntervalSet valid = IntervalSet::NonNegativeReals();
  if (rng.Chance(0.3)) valid = IntervalSet(0.0, rng.UniformReal(20.0, 60.0));
  const std::int64_t holes = rng.UniformInt(0, 2);
  for (std::int64_t h = 0; h < holes; ++h) {
    const double lo = rng.UniformReal(0.0, 50.0);
    valid = valid.Subtract(IntervalSet(lo, lo + rng.UniformReal(0.5, 10.0)));
  }
  return valid;
}

/// What a generated set looks like beyond its size.
struct SetShape {
  /// Costs are drawn from this many multiples of 1/4; few levels give
  /// long runs of equal cost, where Fig. 4 tests in both directions.
  double cost_levels = 16.0;
  /// Lower end of the line slopes; below 0 gives non-monotone PWLs.
  double min_slope = 0.0;
};

/// Solutions with multi-segment or bottom PWLs, mixed parity, valid
/// regions with holes, and costs/caps on a coarse grid so that ties and
/// the eps band occur.  `detail` numbers the solutions in input order.
SolutionSet RichRandomSet(Rng& rng, int n, SetShape shape = {}) {
  SolutionSet set;
  for (int i = 0; i < n; ++i) {
    const double cost =
        std::floor(rng.UniformReal(0.0, shape.cost_levels)) / 4.0;
    const double cap = std::floor(rng.UniformReal(0.0, 8.0)) / 4.0;
    SolutionPtr s =
        Make(cost, cap, rng.UniformReal(0.0, 100.0),
             RandomMultiSegment(rng, 200.0, 0.15, shape.min_slope),
             RandomMultiSegment(rng, 300.0, 0.25, shape.min_slope));
    s->parity = rng.Chance(0.3) ? 1 : 0;
    if (rng.Chance(0.2)) s->stage_span_um = rng.UniformReal(0.0, 100.0);
    s->valid = RandomValid(rng);
    s->detail = static_cast<std::size_t>(i);
    set.push_back(std::move(s));
  }
  return set;
}

SolutionSet DeepCopy(const SolutionSet& set) {
  SolutionSet copy;
  for (const SolutionPtr& s : set) {
    copy.push_back(std::make_shared<MsriSolution>(*s));
  }
  return copy;
}

class MfsMinimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MfsMinimality, NoSurvivorDominatedAtSampledLoads) {
  Rng rng(GetParam());
  const SolutionSet set = RandomSet(rng, 48);
  std::vector<double> xs = {0.0, 0.25, 1.0, 3.0, 10.0, 40.0};
  for (int i = 0; i < 24; ++i) xs.push_back(rng.UniformReal(0.0, 60.0));

  for (const MfsOptions::Mode mode :
       {MfsOptions::Mode::kQuadratic, MfsOptions::Mode::kDivideConquer}) {
    MfsOptions options;
    options.mode = mode;
    MfsStats stats;
    const SolutionSet out = ComputeMfs(DeepCopy(set), options, &stats);
    ExpectMinimal(out, xs, 1e-6);
    // The predictive skip only ever avoids tests the sort already
    // decided; its mirror-pair bound must hold structurally.
    EXPECT_LE(stats.predictive_skipped, stats.comparisons);
    EXPECT_GT(stats.predictive_skipped, 0u);
  }
}

/// The all-pairs mode (kQuadratic) and the recursion (kDivideConquer) agree:
/// identical pointwise-achievable frontier at sampled loads, each mode's
/// survivors covered by the other's, and both minimal.
TEST_P(MfsMinimality, PairwiseAndRecurseEquivalent) {
  Rng rng(GetParam() + 1000);
  // Single-line PWLs on [0, inf), then the multi-segment generator.
  const SolutionSet single = RandomSet(rng, 40);
  Rng rich_rng(GetParam() + 3000);
  const SolutionSet rich = RichRandomSet(rich_rng, 40);
  for (const SolutionSet* set : {&single, &rich}) {
    MfsOptions quad = Quadratic();
    MfsOptions dc;
    dc.mode = MfsOptions::Mode::kDivideConquer;
    dc.base_case = 4;  // Deep recursion: many cross-prune passes.
    const SolutionSet a = ComputeMfs(DeepCopy(*set), quad);
    const SolutionSet b = ComputeMfs(DeepCopy(*set), dc);

    std::vector<double> xs;
    for (int i = 0; i < 32; ++i) xs.push_back(rng.UniformReal(0.0, 60.0));
    ExpectMinimal(a, xs, 1e-6);
    ExpectMinimal(b, xs, 1e-6);
    auto covered = [](const SolutionSet& by, const MsriSolution& s,
                      double x) {
      for (const SolutionPtr& k : by) {
        if (!k->valid.Contains(x) || k->parity != s.parity) continue;
        if (k->cost <= s.cost + 1e-6 && k->cap <= s.cap + 1e-6 &&
            k->sink_delay <= s.sink_delay + 1e-6 &&
            k->stage_span_um <= s.stage_span_um + 1e-6 &&
            k->stage_diam_um <= s.stage_diam_um + 1e-6 &&
            k->arr.Eval(x) <= s.arr.Eval(x) + 1e-6 &&
            k->diam.Eval(x) <= s.diam.Eval(x) + 1e-6) {
          return true;
        }
      }
      return false;
    };
    for (const double x : xs) {
      for (const SolutionPtr& s : a) {
        if (s->valid.Contains(x)) {
          EXPECT_TRUE(covered(b, *s, x)) << "x=" << x;
        }
      }
      for (const SolutionPtr& s : b) {
        if (s->valid.Contains(x)) {
          EXPECT_TRUE(covered(a, *s, x)) << "x=" << x;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MfsMinimality,
                         ::testing::Range<std::uint64_t>(1, 16));

/// One dominance test written with plain IntervalSet algebra: no early
/// exit, no buffers, whole-set comparison.  pruned_partial counts only a
/// victim whose valid region really shrank.
bool ReferencePrune(const MsriSolution& d, MsriSolution& v,
                    const MfsOptions& o, MfsStats& stats) {
  if (v.valid.Empty()) return true;
  if (&d == &v) return false;
  if (d.parity != v.parity) return false;
  if (!(d.cost <= v.cost + o.CostEps())) return false;
  if (!(d.cap <= v.cap + o.CapEps())) return false;
  if (!(d.stage_span_um <= v.stage_span_um + 1e-6)) return false;
  if (!(d.stage_diam_um <= v.stage_diam_um + 1e-6)) return false;
  if (!(d.sink_delay <= v.sink_delay + o.DelayEps())) return false;
  if (d.valid.Empty()) return false;
  std::vector<Interval> arr;
  std::vector<Interval> diam;
  d.arr.RegionLessEqual(v.arr, o.DelayEps(), arr);
  d.diam.RegionLessEqual(v.diam, o.DelayEps(), diam);
  const IntervalSet region =
      IntervalSet(arr).Intersect(IntervalSet(diam)).Intersect(d.valid);
  const IntervalSet rest = v.valid.Subtract(region);
  if (rest == v.valid) return false;
  v.valid = rest;
  if (rest.Empty()) return true;
  ++stats.pruned_partial;
  return false;
}

/// Both pruning modes as plain loops over a (cost, cap)-sorted array, in
/// the visit order of Fig. 4: dead entries become nullptr, and every
/// counter is counted where its test runs or is skipped.
class ReferenceSweep {
 public:
  ReferenceSweep(SolutionSet& set, const MfsOptions& o, MfsStats& stats)
      : set_(set), o_(o), stats_(stats) {
    for (const SolutionPtr& s : set) cost_.push_back(s->cost);
  }

  /// All pairs of [b, e): row i skips, uncounted as tests, the live
  /// victims that undercut it by more than the cost slack.
  void Pairwise(std::size_t b, std::size_t e) {
    std::size_t lo = b;
    for (std::size_t i = b; i < e; ++i) {
      while (lo < e && cost_[lo] < cost_[i] - o_.CostEps()) ++lo;
      if (!set_[i]) continue;
      for (std::size_t j = b; j < lo; ++j) {
        if (set_[j]) ++stats_.predictive_skipped;
      }
      for (std::size_t j = lo; j < e; ++j) {
        if (i != j && set_[j]) Test(i, j);
      }
    }
  }

  /// Split at mid, recurse left, recurse right, then cross-prune: each
  /// live left l tests each live right r forward, then backward unless r
  /// out-costs l beyond the slack (a predictive skip).
  void Recurse(std::size_t b, std::size_t e) {
    if (e - b <= o_.base_case) {
      Pairwise(b, e);
      return;
    }
    const std::size_t mid = b + (e - b) / 2;
    Recurse(b, mid);
    Recurse(mid, e);
    for (std::size_t l = b; l < mid; ++l) {
      for (std::size_t r = mid; set_[l] && r < e; ++r) {
        if (!set_[r] || Test(l, r)) continue;
        if (cost_[r] > cost_[l] + o_.CostEps()) {
          ++stats_.predictive_skipped;
        } else {
          Test(r, l);
        }
      }
    }
  }

 private:
  /// Runs and counts one test; true when victim v died.
  bool Test(std::size_t d, std::size_t v) {
    ++stats_.comparisons;
    if (!ReferencePrune(*set_[d], *set_[v], o_, stats_)) return false;
    ++stats_.pruned;
    set_[v] = nullptr;
    return true;
  }

  SolutionSet& set_;
  const MfsOptions& o_;
  MfsStats& stats_;
  std::vector<double> cost_;
};

SolutionSet ReferenceMfs(SolutionSet set, const MfsOptions& o,
                         MfsStats& stats) {
  ++stats.calls;
  stats.candidates_in += set.size();
  std::erase_if(set,
                [](const SolutionPtr& s) { return !s || s->valid.Empty(); });
  const auto by_cost_cap = [](const SolutionPtr& a, const SolutionPtr& b) {
    if (a->cost != b->cost) return a->cost < b->cost;
    return a->cap < b->cap;
  };
  std::sort(set.begin(), set.end(), by_cost_cap);
  if (set.size() >= 2) {
    ReferenceSweep sweep(set, o, stats);
    if (o.mode == MfsOptions::Mode::kQuadratic) {
      sweep.Pairwise(0, set.size());
    } else {
      sweep.Recurse(0, set.size());
    }
    std::erase_if(set, [](const SolutionPtr& s) { return s == nullptr; });
    std::sort(set.begin(), set.end(), by_cost_cap);
  }
  stats.candidates_out += set.size();
  return set;
}

/// ComputeMfs matches the reference bit for bit on `set`: the same
/// survivors in the same order, the same valid endpoints, the same
/// counters.  Returns the reference's counters.
MfsStats ExpectMatchesReference(const SolutionSet& set,
                                const MfsOptions& o) {
  MfsStats got_stats;
  MfsStats want_stats;
  const SolutionSet got = ComputeMfs(DeepCopy(set), o, &got_stats);
  const SolutionSet want = ReferenceMfs(DeepCopy(set), o, want_stats);

  EXPECT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
    EXPECT_EQ(got[k]->detail, want[k]->detail) << "survivor " << k;
    EXPECT_EQ(got[k]->valid, want[k]->valid) << "survivor " << k;
  }
  EXPECT_EQ(got_stats.calls, want_stats.calls);
  EXPECT_EQ(got_stats.candidates_in, want_stats.candidates_in);
  EXPECT_EQ(got_stats.candidates_out, want_stats.candidates_out);
  EXPECT_EQ(got_stats.comparisons, want_stats.comparisons);
  EXPECT_EQ(got_stats.predictive_skipped, want_stats.predictive_skipped);
  EXPECT_EQ(got_stats.pruned, want_stats.pruned);
  EXPECT_EQ(got_stats.pruned_partial, want_stats.pruned_partial);
  return want_stats;
}

class MfsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MfsReference, QuadraticMatchesIntervalSetReference) {
  Rng rng(GetParam() + 2000);
  const MfsStats want =
      ExpectMatchesReference(RichRandomSet(rng, 64), Quadratic());
  // The generator reaches every outcome the kernel distinguishes.
  EXPECT_GT(want.pruned, 0u);
  EXPECT_GT(want.pruned_partial, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MfsReference,
                         ::testing::Range<std::uint64_t>(1, 13));

/// One divide-and-conquer reference case: a generated set's shape, its
/// size, and the recursion's base case.
struct DcCase {
  const char* shape_name;
  SetShape shape;
  int size;
  std::size_t base_case;
};

class MfsDcReference : public ::testing::TestWithParam<DcCase> {};

/// Divide-and-conquer, the mode every DP run uses, matches the reference
/// bit for bit.  The sizes put odd lengths on both sides of a split and
/// land on and next to the base case.
TEST_P(MfsDcReference, MatchesIntervalSetReference) {
  const DcCase& c = GetParam();
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  dc.base_case = c.base_case;
  for (std::uint64_t seed = 1; seed <= (c.size < 64 ? 8u : 1u); ++seed) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(c.size));
    const MfsStats want =
        ExpectMatchesReference(RichRandomSet(rng, c.size, c.shape), dc);
    if (c.size >= 64) {
      EXPECT_GT(want.pruned, 0u);
      EXPECT_GT(want.pruned_partial, 0u);
      EXPECT_GT(want.predictive_skipped, 0u);
    }
  }
}

std::vector<DcCase> DcCases() {
  const std::pair<const char*, SetShape> shapes[] = {
      {"rich", SetShape{}},
      {"cost_ties", SetShape{.cost_levels = 2.0, .min_slope = 0.0}},
      {"non_monotone", SetShape{.cost_levels = 16.0, .min_slope = -30.0}},
  };
  std::vector<DcCase> cases;
  for (const auto& [name, shape] : shapes) {
    for (const int size : {1, 2, 3, 8, 9, 17, 64, 511, 2048}) {
      cases.push_back({name, shape, size, 8});
    }
    cases.push_back({name, shape, 17, 1});
    cases.push_back({name, shape, 64, 3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MfsDcReference, ::testing::ValuesIn(DcCases()),
    [](const ::testing::TestParamInfo<DcCase>& param_info) {
      const DcCase& c = param_info.param;
      return std::string(c.shape_name) + "_" + std::to_string(c.size) +
             "_base" + std::to_string(c.base_case);
    });

/// A victim partly pruned early in a call is tested again later in the
/// same call, against a dominator whose valid region misses the
/// victim's new region but overlaps the region it held when the call
/// started.
TEST(MfsReference, RetestAfterPartialPruneMatchesReference) {
  const auto build = [] {
    SolutionSet set;
    // No other solution prunes 0, 1 or 2: 0 has the worse sink delay,
    // 1 the lower cap, 2 the higher cost and cap.
    set.push_back(Make(1.0, 1.0, 1.0, Pwl::Constant(0.0), Pwl::NegInf()));
    set[0]->valid = IntervalSet(0.0, 5.0);
    set.push_back(Make(1.5, 1.0, 0.0, Pwl::Constant(0.0), Pwl::NegInf()));
    set[1]->valid = IntervalSet(0.0, 4.0);
    set.push_back(Make(1.5, 1.5, 0.0, Pwl::Constant(0.0), Pwl::NegInf()));
    set[2]->valid = IntervalSet(4.5, kInf).Subtract(IntervalSet(8.0, 9.0));
    // The victim: 0 and 2 together cut its [0, inf) down to [8, 9).  1
    // is tested after 0's cut, on a region the victim no longer holds.
    set.push_back(Make(2.0, 2.0, 2.0, Pwl::Line(0.0, 1.0), Pwl::NegInf()));
    for (std::size_t i = 0; i < set.size(); ++i) set[i]->detail = i;
    return set;
  };
  for (const MfsOptions::Mode mode :
       {MfsOptions::Mode::kQuadratic, MfsOptions::Mode::kDivideConquer}) {
    MfsOptions o;
    o.mode = mode;
    o.base_case = 1;
    const MfsStats want = ExpectMatchesReference(build(), o);
    EXPECT_EQ(want.pruned, 0u);
    EXPECT_EQ(want.pruned_partial, 2u);
    SolutionSet set = build();
    const SolutionSet out = ComputeMfs(set, o);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[3]->valid, IntervalSet(8.0, 9.0));
  }
}

/// Divide-and-conquer agrees with quadratic pruning on the surviving
/// frontier (same minimal cover, possibly different tie-breaks — we check
/// coverage: for sampled x, the best achievable 5-tuple is preserved).
class MfsModeAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MfsModeAgreement, SameCoverage) {
  Rng rng(GetParam());
  SolutionSet set;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    set.push_back(Make(rng.UniformReal(0.0, 4.0), rng.UniformReal(0.0, 2.0),
                       rng.UniformReal(0.0, 100.0),
                       Pwl::Line(rng.UniformReal(0.0, 200.0),
                                 rng.UniformReal(0.0, 30.0)),
                       Pwl::Line(rng.UniformReal(0.0, 300.0),
                                 rng.UniformReal(0.0, 30.0))));
  }
  MfsOptions quad = Quadratic();
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  // Each mode gets its own copy: ComputeMfs mutates valid regions.
  const SolutionSet a = ComputeMfs(DeepCopy(set), quad);
  const SolutionSet b = ComputeMfs(DeepCopy(set), dc);

  // For sampled x, every solution valid at x in one survivor set must be
  // matched (in all 5 dims, up to eps) by some valid solution in the other.
  auto covered = [](const SolutionSet& by, const MsriSolution& s,
                    double x) {
    for (const SolutionPtr& k : by) {
      if (!k->valid.Contains(x)) continue;
      if (k->cost <= s.cost + 1e-6 && k->cap <= s.cap + 1e-6 &&
          k->sink_delay <= s.sink_delay + 1e-6 &&
          k->arr.Eval(x) <= s.arr.Eval(x) + 1e-6 &&
          k->diam.Eval(x) <= s.diam.Eval(x) + 1e-6) {
        return true;
      }
    }
    return false;
  };
  for (double x : {0.0, 0.5, 1.0, 2.0, 5.0, 20.0}) {
    for (const SolutionPtr& s : a) {
      if (s->valid.Contains(x)) {
        EXPECT_TRUE(covered(b, *s, x)) << "x=" << x;
      }
    }
    for (const SolutionPtr& s : b) {
      if (s->valid.Contains(x)) {
        EXPECT_TRUE(covered(a, *s, x)) << "x=" << x;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MfsModeAgreement,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace msn
