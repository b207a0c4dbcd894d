#include "core/mfs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace msn {
namespace {

/// Slack on the stage-length scalars (µm): they are sums of wire lengths,
/// so only rounding noise separates equal ones.
constexpr double kStageEps = 1e-6;

/// Relative widening of every finite diameter bound.  RegionLessEqual
/// decides each pair in rounded arithmetic, a few ulps off the exact
/// values; widening the bounds by far more than that keeps a reject on
/// bounds from dropping a point the full test would have found.
constexpr double kBoundSlack = 1e-12;

/// Two doubles, compared lane-wise without a branch: SSE2 on x86-64 and
/// NEON on AArch64, the baseline of each, through the GCC/Clang vector
/// extension.
using Lanes = double __attribute__((vector_size(16)));

Lanes LoadLanes(const double* p) {
  Lanes x;
  std::memcpy(&x, p, sizeof x);
  return x;
}

void SortByCostCap(SolutionSet& set) {
  std::sort(set.begin(), set.end(),
            [](const SolutionPtr& a, const SolutionPtr& b) {
              if (a->cost != b->cost) return a->cost < b->cost;
              return a->cap < b->cap;
            });
}

/// [min, max] of f over [lo, hi): its values at both ends and on both
/// sides of every breakpoint inside, with the limit at an infinite end.
/// The bottom function is -inf throughout.  Holds for any PWL, monotone
/// or not; each finite value is widened by kBoundSlack of its terms.
std::pair<double, double> RangeOver(const Pwl& f, double lo, double hi) {
  if (f.IsNegInf()) return {-kInf, -kInf};
  double min = kInf;
  double max = -kInf;
  const auto add = [&min, &max](const PwlSegment& s, double x) {
    const double slack =
        kBoundSlack * (1.0 + std::fabs(s.intercept) + std::fabs(s.slope * x));
    min = std::min(min, s.ValueAt(x) - slack);
    max = std::max(max, s.ValueAt(x) + slack);
  };
  const Pwl::SegmentView segments = f.Segments();
  for (std::size_t k = 0; k < segments.size(); ++k) {
    // Segment k covers [x_lo_k, x_lo_{k+1}); the first one also covers
    // everything to its left, as in RegionLessEqual.
    const PwlSegment s = segments[k];
    const double a = k == 0 ? lo : std::max(lo, s.x_lo);
    const double b =
        k + 1 < segments.size() ? std::min(hi, segments[k + 1].x_lo) : hi;
    if (!(a < b)) continue;
    add(s, a);
    if (!std::isinf(b)) {
      add(s, b);
    } else if (s.slope > 0.0) {
      max = kInf;
    } else if (s.slope < 0.0) {
      min = -kInf;
    } else {
      add(s, 0.0);
    }
  }
  return {min, max};
}

/// What the rest of a dominance test reads of one slot once cap and sink
/// delay pass: the other scalars, and bounds that reject most such pairs
/// before either solution is dereferenced.  The slot's valid region lies
/// in [hull_lo, hull_hi), and its diameter there in [diam_min, diam_max].
/// Both are taken when the call starts; a valid region only shrinks
/// during a call, so they stay sound while it shrinks.  The row loops
/// read `live` next to `cost`.
struct SlotBounds {
  double cost = 0.0;
  double stage_span_um = 0.0;
  double stage_diam_um = 0.0;
  double hull_lo = 0.0;
  double hull_hi = 0.0;
  double diam_min = 0.0;
  double diam_max = 0.0;
  int parity = 0;
  bool live = true;  ///< False once the slot's solution is pruned.
};

/// One pruning pass over a (cost, cap)-sorted set.  Sub-sets are index
/// ranges [b, e) of the one array and a pruned slot is only marked dead,
/// so no recursion level copies a SolutionSet; Compact drops the dead
/// slots once at the end.
///
/// Every test reads cap and sink delay first, from two dense columns and
/// without a branch; these two scalars fail most pairs.  A pair that
/// passes them reads the remaining scalars and the bounds of SlotBounds,
/// and only a pair that passes those touches its solutions.  The interval
/// buffers belong to the pass and are reused by all of its dominance
/// tests, so a test allocates only while some region is larger than every
/// earlier one.  Each pass is local to one ComputeMfs call, which keeps
/// concurrent calls independent.
class DominanceSweep {
 public:
  DominanceSweep(SolutionSet& set, const MfsOptions& options,
                 MfsStats& stats)
      : set_(set),
        cost_eps_(options.CostEps()),
        cap_eps_(options.CapEps()),
        delay_eps_(options.DelayEps()),
        base_case_(options.base_case),
        stats_(stats) {
    const std::size_t n = set.size();
    scan_.resize(2 * n);
    cap_ = scan_.data();
    sink_delay_ = scan_.data() + n;
    bounds_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const MsriSolution& s = *set[i];
      cap_[i] = s.cap;
      sink_delay_[i] = s.sink_delay;
      // ComputeMfs drops empty valid regions before the pass.
      const double lo = s.valid.Intervals().front().lo;
      const double hi = s.valid.Intervals().back().hi;
      const auto [diam_min, diam_max] = RangeOver(s.diam, lo, hi);
      bounds_[i] = {s.cost,   s.stage_span_um, s.stage_diam_um, lo, hi,
                    diam_min, diam_max,        s.parity,        true};
    }
  }

  // cap_ and sink_delay_ point into scan_.
  DominanceSweep(const DominanceSweep&) = delete;
  DominanceSweep& operator=(const DominanceSweep&) = delete;

  /// All-pairs pruning of [b, e).  Prune fails on cost before anything
  /// else can happen, so a dominator i can never prune a victim j with
  /// cost[j] < cost[i] - eps; the sort makes those victims a prefix of each
  /// row, skipped wholesale without running the test (predictive pruning:
  /// the skip is decided from the sort invariant, not by the test).  The
  /// rest of the row is forward-only: i is never a victim in its own row.
  void Pairwise(std::size_t b, std::size_t e) {
    std::size_t live = CountLive(b, e);  // live slots in [b, e)
    std::size_t lo = b;          // first j that row i could possibly prune
    std::size_t live_below = 0;  // live slots in [b, lo)
    for (std::size_t i = b; i < e; ++i) {
      // Dead slots keep their cost, so the threshold stays well defined.
      // A slot below lo is never tested again, so its liveness is final
      // when lo passes it.
      const double floor = bounds_[i].cost - cost_eps_;
      while (lo < e && bounds_[lo].cost < floor) {
        live_below += bounds_[lo].live;
        ++lo;
      }
      if (!bounds_[i].live) continue;
      // Tests the unsorted all-pairs loop would have run and lost on the
      // cost check.
      stats_.predictive_skipped += live_below;
      // One test per live slot of [lo, e) other than i (lo passes i only
      // under a negative cost slack).
      stats_.comparisons += live - live_below - (lo <= i ? 1 : 0);
      live -= ForwardRow(i, lo, i);
      live -= ForwardRow(i, std::max(lo, i + 1), e);
    }
  }

  /// Fig. 4 over [b, e): split, recurse, cross-prune the survivors.
  void Recurse(std::size_t b, std::size_t e) {
    if (e - b <= base_case_) {
      Pairwise(b, e);
      return;
    }
    const std::size_t mid = b + (e - b) / 2;
    Recurse(b, mid);
    Recurse(mid, e);
    Cross(b, mid, e);
  }

  /// Drops the dead slots, keeping the survivors' order.
  void Compact() {
    std::size_t n = 0;
    for (std::size_t i = 0; i < set_.size(); ++i) {
      if (bounds_[i].live) set_[n++].swap(set_[i]);
    }
    set_.resize(n);
  }

 private:
  /// Each live left slot l against each live right slot r, in ascending
  /// r: forward, then backward.  Every left cost <= every right cost (the
  /// recursion splits a (cost, cap)-sorted range and never reorders), so
  /// r can undercut l on cost only inside the eps band [mid, t); past it
  /// the backward test is decided by the sort invariant without running,
  /// and the rest of the row is forward-only.  t only moves right as l's
  /// cost grows.
  void Cross(std::size_t b, std::size_t mid, std::size_t e) {
    std::size_t right_live = CountLive(mid, e);  // live slots in [mid, e)
    std::size_t band_live = 0;                   // live slots in [mid, t)
    std::size_t t = mid;
    for (std::size_t l = b; l < mid; ++l) {
      if (!bounds_[l].live) continue;
      const double reach = bounds_[l].cost + cost_eps_;
      while (t < e && !(bounds_[t].cost > reach)) {
        band_live += bounds_[t].live;
        ++t;
      }
      bool l_died = false;
      for (std::size_t r = mid; r < t; ++r) {
        if (!bounds_[r].live) continue;
        ++stats_.comparisons;
        if (Scan(l, r) && Prune(l, r)) {  // r is gone
          --band_live;
          --right_live;
          continue;
        }
        ++stats_.comparisons;
        if (Scan(r, l) && Prune(r, l)) {  // l is gone; its row is done
          l_died = true;
          break;
        }
      }
      if (l_died) continue;
      const std::size_t tail_live = right_live - band_live;
      const std::size_t killed = ForwardRow(l, t, e);
      stats_.comparisons += tail_live;
      stats_.predictive_skipped += tail_live - killed;
      right_live -= killed;
    }
  }

  std::size_t CountLive(std::size_t b, std::size_t e) const {
    std::size_t live = 0;
    for (std::size_t i = b; i < e; ++i) live += bounds_[i].live;
    return live;
  }

  /// Slot d tests every live slot of [from, to), in ascending order, as
  /// their dominator only, so no test of the row can kill d.  Four slots
  /// at a time pass or fail Scan without a branch; dead slots carry a NaN
  /// cap and fail it.  The caller counts the tests.  Returns how many
  /// victims died.
  std::size_t ForwardRow(std::size_t d, std::size_t from, std::size_t to) {
    // Locals, so the scan keeps them in registers across the rare Prune.
    const double* caps = cap_;
    const double* sink_delays = sink_delay_;
    const Lanes cap = {caps[d], caps[d]};
    const Lanes sink_delay = {sink_delays[d], sink_delays[d]};
    const Lanes cap_eps = {cap_eps_, cap_eps_};
    const Lanes delay_eps = {delay_eps_, delay_eps_};
    std::size_t killed = 0;
    std::size_t v = from;
    for (; v + 4 <= to; v += 4) {
      const auto pass =
          ((cap <= LoadLanes(caps + v) + cap_eps) &
           (sink_delay <= LoadLanes(sink_delays + v) + delay_eps)) |
          ((cap <= LoadLanes(caps + v + 2) + cap_eps) &
           (sink_delay <= LoadLanes(sink_delays + v + 2) + delay_eps));
      if ((pass[0] | pass[1]) != 0) [[unlikely]] {
        for (std::size_t k = v; k < v + 4; ++k) {
          if (Scan(d, k) && Prune(d, k)) ++killed;
        }
      }
    }
    for (; v < to; ++v) {
      if (Scan(d, v) && Prune(d, v)) ++killed;
    }
    return killed;
  }

  /// The first two scalars of Def. 4.3: d is no worse than v in cap and
  /// sink delay.
  bool Scan(std::size_t d, std::size_t v) const {
    return cap_[d] <= cap_[v] + cap_eps_ &&
           sink_delay_[d] <= sink_delay_[v] + delay_eps_;
  }

  /// The rest of one dominance test (Def. 4.3) for a pair that passed
  /// Scan: shrinks slot v's valid region by the region where slot d, on
  /// its own valid region, is no worse in all five dimensions up to the
  /// slacks.  Returns true when v emptied and died.
  bool Prune(std::size_t d, std::size_t v) {
    const SlotBounds& bd = bounds_[d];
    const SlotBounds& bv = bounds_[v];
    // Parity classes are incomparable: a later inverter turns one into
    // the feasible class and the other into the infeasible one.
    if (!(bd.cost <= bv.cost + cost_eps_ && bd.parity == bv.parity &&
          bd.stage_span_um <= bv.stage_span_um + kStageEps &&
          bd.stage_diam_um <= bv.stage_diam_um + kStageEps)) {
      return false;
    }
    // Bound rejects: the two valid regions cannot meet, or d's diameter
    // exceeds v's everywhere both are valid.  The full test would find
    // an empty region for either pair.
    if (bd.hull_hi <= bv.hull_lo || bv.hull_hi <= bd.hull_lo ||
        bd.diam_min > bv.diam_max + delay_eps_) {
      return false;
    }
    // A solution listed twice never prunes itself.
    if (set_[d] == set_[v]) return false;
    MsriSolution& victim = *set_[v];
    if (!ShrinkValid(*set_[d], victim)) return false;
    if (!victim.valid.Empty()) {
      ++stats_.pruned_partial;
      return false;
    }
    ++stats_.pruned;
    bounds_[v].live = false;
    cap_[v] = std::numeric_limits<double>::quiet_NaN();
    return true;
  }

  /// victim.valid minus (arr region ∩ diam region ∩ dominator.valid), as
  /// linear merges into the pass's buffers.  Returns true iff it shrank.
  /// Live slots always have non-empty valid regions.
  bool ShrinkValid(const MsriSolution& dominator, MsriSolution& victim) {
    // Only the part of the region inside victim.valid can remove anything,
    // so both exits below leave every solution as the full test would.
    IntersectInto(dominator.valid.Intervals(), victim.valid.Intervals(),
                  shared_);
    if (shared_.empty()) return false;
    dominator.arr.RegionLessEqual(victim.arr, delay_eps_, arr_);
    if (arr_.empty()) return false;
    dominator.diam.RegionLessEqual(victim.diam, delay_eps_, diam_);
    IntersectInto(arr_, diam_, meet_);
    IntersectInto(meet_, shared_, region_);
    return victim.valid.SubtractInPlace(region_, rest_);
  }

  SolutionSet& set_;
  const double cost_eps_;
  const double cap_eps_;
  const double delay_eps_;
  const std::size_t base_case_;
  MfsStats& stats_;
  // The scan columns: cap_ and sink_delay_ are the two halves of scan_.
  std::vector<double> scan_;
  double* cap_ = nullptr;
  double* sink_delay_ = nullptr;
  std::vector<SlotBounds> bounds_;
  // Scratch of ShrinkValid, named for what each holds.
  std::vector<Interval> shared_;
  std::vector<Interval> arr_;
  std::vector<Interval> diam_;
  std::vector<Interval> meet_;
  std::vector<Interval> region_;
  std::vector<Interval> rest_;
};

}  // namespace

SolutionSet ComputeMfs(SolutionSet set, const MfsOptions& options,
                       MfsStats* stats) {
  MSN_CHECK_MSG(options.base_case >= 1,
                "MfsOptions::base_case must be at least 1");
  MfsStats local;
  MfsStats& counts = stats != nullptr ? *stats : local;
  ++counts.calls;
  counts.candidates_in += set.size();

  std::erase_if(set,
                [](const SolutionPtr& s) { return !s || s->valid.Empty(); });
  // Sorting by (cost, cap) first puts likely dominators early, making the
  // divide-and-conquer discard suboptimal solutions deep in the recursion
  // (the paper's Section V implementation note).
  SortByCostCap(set);
  if (options.mode != MfsOptions::Mode::kOff && set.size() >= 2) {
    DominanceSweep sweep(set, options, counts);
    if (options.mode == MfsOptions::Mode::kQuadratic) {
      sweep.Pairwise(0, set.size());
    } else {
      sweep.Recurse(0, set.size());
    }
    sweep.Compact();
    SortByCostCap(set);
  }

  counts.candidates_out += set.size();
  return set;
}

}  // namespace msn
