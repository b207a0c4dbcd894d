#include "core/mfs.h"

#include <algorithm>
#include <vector>

#include "common/numeric.h"

namespace msn {
namespace {

bool ScalarLeq(double a, double b, double eps) { return a <= b + eps; }

void SortByCostCap(SolutionSet& set) {
  std::sort(set.begin(), set.end(),
            [](const SolutionPtr& a, const SolutionPtr& b) {
              if (a->cost != b->cost) return a->cost < b->cost;
              return a->cap < b->cap;
            });
}

/// All-pairs pruning over `set`, in place; dead entries become nullptr.
/// Precondition: entries are non-null and sorted by (cost, cap) — callers
/// sort before pruning, and divide-and-conquer slices of a sorted set
/// stay sorted.  PruneByDominance tests cost before anything else, so a
/// dominator i can never prune a victim j with cost[j] < cost[i] - eps;
/// the sort makes those victims a prefix of each row, skipped wholesale
/// without running the test (predictive pruning — the skip is decided
/// from the sort invariant, not from the comparison itself).
void PairwisePrune(SolutionSet& set, const MfsOptions& options,
                   MfsStats* stats) {
  const std::size_t n = set.size();
  // Cost column snapshot: victims nulled mid-loop keep their slot's role
  // in the ordering, so the prefix threshold stays well defined.
  std::vector<double> cost(n);
  for (std::size_t i = 0; i < n; ++i) cost[i] = set[i]->cost;
  const double cost_eps = options.CostEps();
  std::size_t lo = 0;  // first j that row i could possibly prune
  for (std::size_t i = 0; i < n; ++i) {
    while (lo < n && cost[lo] < cost[i] - cost_eps) ++lo;
    if (!set[i]) continue;
    if (stats) {
      // Tests the unsorted all-pairs loop would have run and lost on the
      // cost check.  lo <= i, so j == i never lands in this prefix.
      for (std::size_t j = 0; j < lo; ++j) {
        if (set[j]) ++stats->predictive_skipped;
      }
    }
    for (std::size_t j = lo; j < n; ++j) {
      if (i == j || !set[j]) continue;
      if (stats) ++stats->comparisons;
      if (PruneByDominance(*set[i], *set[j], options, stats)) {
        if (stats) ++stats->pruned;
        set[j] = nullptr;
      }
    }
  }
}

void CrossPrune(SolutionSet& left, SolutionSet& right,
                const MfsOptions& options, MfsStats* stats) {
  const double cost_eps = options.CostEps();
  for (SolutionPtr& l : left) {
    if (!l) continue;
    for (SolutionPtr& r : right) {
      if (!l) break;       // l was just pruned by some r; row is done
      if (!r) continue;    // already-pruned slot; later slots may be live
      if (stats) ++stats->comparisons;
      if (PruneByDominance(*l, *r, options, stats)) {
        if (stats) ++stats->pruned;
        r = nullptr;
        continue;
      }
      // Every left cost <= every right cost (the recursion splits a
      // (cost, cap)-sorted set and never reorders), so r can undercut l
      // on cost only inside the eps band; outside it the reverse test is
      // decided by the sort invariant without running.
      if (r->cost > l->cost + cost_eps) {
        if (stats) ++stats->predictive_skipped;
        continue;
      }
      if (stats) ++stats->comparisons;
      if (PruneByDominance(*r, *l, options, stats)) {
        if (stats) ++stats->pruned;
        l = nullptr;
      }
    }
  }
}

void Compact(SolutionSet& set) {
  std::erase_if(set, [](const SolutionPtr& s) { return s == nullptr; });
}

void MfsRecurse(SolutionSet& set, const MfsOptions& options,
                MfsStats* stats) {
  if (set.size() <= options.base_case) {
    PairwisePrune(set, options, stats);
    Compact(set);
    return;
  }
  const std::size_t mid = set.size() / 2;
  SolutionSet left(set.begin(), set.begin() + static_cast<std::ptrdiff_t>(mid));
  SolutionSet right(set.begin() + static_cast<std::ptrdiff_t>(mid),
                    set.end());
  MfsRecurse(left, options, stats);
  MfsRecurse(right, options, stats);
  CrossPrune(left, right, options, stats);
  Compact(left);
  Compact(right);
  set.clear();
  set.insert(set.end(), left.begin(), left.end());
  set.insert(set.end(), right.begin(), right.end());
}

}  // namespace

bool PruneByDominance(const MsriSolution& dominator, MsriSolution& victim,
                      const MfsOptions& options, MfsStats* stats) {
  if (victim.valid.Empty()) return true;
  if (&dominator == &victim) return false;
  // Parity classes are incomparable: a later inverter turns one into the
  // feasible class and the other into the infeasible one.
  if (dominator.parity != victim.parity) return false;
  if (!ScalarLeq(dominator.cost, victim.cost, options.CostEps())) {
    return false;
  }
  if (!ScalarLeq(dominator.cap, victim.cap, options.CapEps())) return false;
  if (!ScalarLeq(dominator.stage_span_um, victim.stage_span_um, 1e-6)) {
    return false;
  }
  if (!ScalarLeq(dominator.stage_diam_um, victim.stage_diam_um, 1e-6)) {
    return false;
  }
  if (!ScalarLeq(dominator.sink_delay, victim.sink_delay,
                 options.DelayEps())) {
    return false;
  }
  if (dominator.valid.Empty()) return false;

  const double delay_eps = options.DelayEps();
  IntervalSet region = dominator.arr.RegionLessEqual(victim.arr, delay_eps)
                           .Intersect(dominator.diam.RegionLessEqual(
                               victim.diam, delay_eps))
                           .Intersect(dominator.valid);
  if (region.Empty()) return false;
  victim.valid = victim.valid.Subtract(region);
  if (!victim.valid.Empty()) {
    if (stats) ++stats->pruned_partial;
    return false;
  }
  return true;
}

SolutionSet ComputeMfs(SolutionSet set, const MfsOptions& options,
                       MfsStats* stats) {
  if (stats) {
    ++stats->calls;
    stats->candidates_in += set.size();
  }

  std::erase_if(set,
                [](const SolutionPtr& s) { return !s || s->valid.Empty(); });
  if (options.mode == MfsOptions::Mode::kOff || set.size() < 2) {
    SortByCostCap(set);
  } else {
    // Sorting by (cost, cap) first puts likely dominators early, making
    // the divide-and-conquer discard suboptimal solutions deep in the
    // recursion (the paper's Section V implementation note).
    SortByCostCap(set);
    if (options.mode == MfsOptions::Mode::kQuadratic) {
      PairwisePrune(set, options, stats);
      Compact(set);
    } else {
      MfsRecurse(set, options, stats);
    }
    SortByCostCap(set);
  }

  if (stats) stats->candidates_out += set.size();
  return set;
}

}  // namespace msn
