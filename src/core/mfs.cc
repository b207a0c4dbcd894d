#include "core/mfs.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace msn {
namespace {

/// Slack on the stage-length scalars (µm): they are sums of wire lengths,
/// so only rounding noise separates equal ones.
constexpr double kStageEps = 1e-6;

void SortByCostCap(SolutionSet& set) {
  std::sort(set.begin(), set.end(),
            [](const SolutionPtr& a, const SolutionPtr& b) {
              if (a->cost != b->cost) return a->cost < b->cost;
              return a->cap < b->cap;
            });
}

/// The scalar coordinates of one slot, copied out of its solution so the
/// pair loops stream a dense column and dereference a solution only for
/// the pairs whose scalars already pass.
struct Key {
  double cost = 0.0;
  double cap = 0.0;
  double sink_delay = 0.0;
  double stage_span_um = 0.0;
  double stage_diam_um = 0.0;
  int parity = 0;
  bool live = true;  ///< False once the slot's solution is pruned away.
};

/// One pruning pass over a (cost, cap)-sorted set.  Sub-sets are index
/// ranges [b, e) of the one array and a pruned slot is only marked dead,
/// so no recursion level copies a SolutionSet; Compact drops the dead
/// slots once at the end.  The interval buffers belong to the pass and are
/// reused by all of its dominance tests, so a test allocates only while
/// some region is larger than every earlier one.  Each pass is local to
/// one ComputeMfs call, which keeps concurrent calls independent.
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
    keys_.reserve(set.size());
    for (const SolutionPtr& s : set) {
      keys_.push_back({s->cost, s->cap, s->sink_delay, s->stage_span_um,
                       s->stage_diam_um, s->parity, true});
    }
  }

  /// All-pairs pruning of [b, e).  PruneSlot fails on cost before anything
  /// else can happen, so a dominator i can never prune a victim j with
  /// cost[j] < cost[i] - eps; the sort makes those victims a prefix of each
  /// row, skipped wholesale without running the test (predictive pruning:
  /// the skip is decided from the sort invariant, not by the test).
  void Pairwise(std::size_t b, std::size_t e) {
    std::size_t lo = b;          // first j that row i could possibly prune
    std::size_t live_below = 0;  // live slots in [b, lo)
    for (std::size_t i = b; i < e; ++i) {
      // Dead slots keep their key, so the threshold stays well defined.
      // A slot below lo is never tested again, so its liveness is final
      // when lo passes it.
      while (lo < e && keys_[lo].cost < keys_[i].cost - cost_eps_) {
        if (keys_[lo].live) ++live_below;
        ++lo;
      }
      if (!keys_[i].live) continue;
      // Tests the unsorted all-pairs loop would have run and lost on the
      // cost check.
      stats_.predictive_skipped += live_below;
      for (std::size_t j = lo; j < e; ++j) {
        if (j != i && keys_[j].live) PruneSlot(i, j);
      }
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
      if (keys_[i].live) set_[n++].swap(set_[i]);
    }
    set_.resize(n);
  }

 private:
  void Cross(std::size_t b, std::size_t mid, std::size_t e) {
    for (std::size_t l = b; l < mid; ++l) {
      if (!keys_[l].live) continue;
      for (std::size_t r = mid; r < e; ++r) {
        if (!keys_[r].live) continue;  // pruned slot; later ones may live
        if (PruneSlot(l, r)) continue;
        // Every left cost <= every right cost (the recursion splits a
        // (cost, cap)-sorted range and never reorders), so r can undercut
        // l on cost only inside the eps band; outside it the reverse test
        // is decided by the sort invariant without running.
        if (keys_[r].cost > keys_[l].cost + cost_eps_) {
          ++stats_.predictive_skipped;
          continue;
        }
        if (PruneSlot(r, l)) break;  // l is gone; its row is done
      }
    }
  }

  /// One dominance test (Def. 4.3): shrinks slot v's valid region by the
  /// region where slot d, on its own valid region, is no worse in all five
  /// dimensions up to the slacks.  Returns true when v emptied and died.
  bool PruneSlot(std::size_t d, std::size_t v) {
    ++stats_.comparisons;
    const Key& kd = keys_[d];
    const Key& kv = keys_[v];
    // Parity classes are incomparable: a later inverter turns one into
    // the feasible class and the other into the infeasible one.
    if (!(kd.cap <= kv.cap + cap_eps_ && kd.cost <= kv.cost + cost_eps_ &&
          kd.sink_delay <= kv.sink_delay + delay_eps_ &&
          kd.parity == kv.parity &&
          kd.stage_span_um <= kv.stage_span_um + kStageEps &&
          kd.stage_diam_um <= kv.stage_diam_um + kStageEps)) {
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
    keys_[v].live = false;
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
  std::vector<Key> keys_;
  const double cost_eps_;
  const double cap_eps_;
  const double delay_eps_;
  const std::size_t base_case_;
  MfsStats& stats_;
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
