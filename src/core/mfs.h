// Minimal functional subset (MFS) pruning — paper Definition 4.3, Fig. 4.
//
// A solution s2 is dominated at external capacitance x by s1 when s1 is no
// worse in all five dimensions: cost, cap, sink_delay (scalars) and
// arr(x), diam(x) (functions).  Because every upward DP combination is
// monotone non-decreasing in all five coordinates, s2 can be discarded on
// exactly the x-region where some valid s1 dominates it; `valid` interval
// sets record the surviving region per solution.
//
// ComputeMfs supports three modes for the ablation study
// (bench_mfs_ablation):
//   kOff           — no pruning (exponential growth; small nets only);
//   kQuadratic     — all-pairs pruning;
//   kDivideConquer — Fig. 4: split, recurse, cross-prune the survivors,
//                    targeting fewer pairwise comparisons in practice with
//                    the same O(n²) worst case.
//
// Both pruning modes run over index ranges of the one (cost, cap)-sorted
// array: a pruned slot is marked dead in place and the dead slots are
// dropped once, at the end.  They test the same pairs, in the same order
// and with the same outcome, as the plain loops of Fig. 4, but most tests
// cost a few instructions:
//   * Scan columns.  When the call starts, cap and sink_delay, the two
//     scalars that fail most pairs, are copied into two dense columns.
//     A row in which the dominator cannot die (every all-pairs row, and
//     each cross-prune row past its cost-eps band, where the backward
//     test is decided by the sort) tests four slots at a time on those
//     columns without a branch, and counts its tests from running live
//     totals instead of visiting each one.
//   * Bound rejects.  Each slot also keeps its other scalars, its valid
//     hull [lo, hi) and the range of its diam over that hull.  A pair
//     that passes the columns is rejected before either solution is
//     touched when the hulls are disjoint or when the dominator's diam
//     exceeds the victim's everywhere both are valid.  Valid regions only
//     shrink during a call, so bounds taken at its start stay sound.
// Only the remaining pairs compute a region: linear interval merges into
// buffers that the call owns and reuses, so in steady state no dominance
// test allocates.  A test stops early when the two valid regions are
// disjoint or when the arrival region is empty, and a victim's `valid`
// is rewritten, in its own storage, only when it actually shrinks.
#ifndef MSN_CORE_MFS_H
#define MSN_CORE_MFS_H

#include <cstddef>

#include "core/solution.h"

namespace msn {

struct MfsOptions {
  enum class Mode { kOff, kQuadratic, kDivideConquer };
  Mode mode = Mode::kDivideConquer;
  /// Dominance slack: s1 may be up to eps worse per dimension and still
  /// prune (bounds the suboptimality of the surviving set by O(eps)).
  /// The default keeps the DP exact to numerical noise.
  double eps = 1e-9;
  /// Per-dimension slacks for *approximate* pruning.  Raising these above
  /// `eps` trades bounded suboptimality (roughly the slack times the tree
  /// depth) for much smaller solution sets — the practical escape from
  /// the pseudopolynomial blowup the paper's Section V notes, needed when
  /// wire sizing multiplies the per-node state space.  Values <= 0 fall
  /// back to `eps`.
  double cost_eps = 0.0;
  double cap_eps = 0.0;    ///< pF.
  double delay_eps = 0.0;  ///< ps; applies to sink_delay, arr and diam.
  /// Divide-and-conquer recursion switches to all-pairs at this size and
  /// below.  Must be at least 1 (checked by ComputeMfs).
  std::size_t base_case = 8;

  double CostEps() const { return cost_eps > 0.0 ? cost_eps : eps; }
  double CapEps() const { return cap_eps > 0.0 ? cap_eps : eps; }
  double DelayEps() const { return delay_eps > 0.0 ? delay_eps : eps; }

  /// A preset that keeps wire-sizing runs tractable on paper-scale nets
  /// (10 fF / 2 ps / 0.1-cost granularity; the accumulated slack is a few
  /// percent of the total delay at the paper's tree depths).
  static MfsOptions Approximate() {
    MfsOptions o;
    o.cost_eps = 0.1;
    o.cap_eps = 0.01;
    o.delay_eps = 2.0;
    return o;
  }
};

/// Statistics of one ComputeMfs call (accumulated across a DP run).
struct MfsStats {
  std::size_t calls = 0;           ///< ComputeMfs invocations.
  std::size_t candidates_in = 0;   ///< Solutions entering the pruner.
  std::size_t candidates_out = 0;  ///< Survivors after pruning.
  std::size_t comparisons = 0;  ///< Pairwise dominance tests performed.
  /// Dominance tests decided by the (cost, cap) sort invariant alone —
  /// the would-be dominator out-costs the victim beyond eps — and
  /// therefore skipped without running.  Always <= comparisons: each
  /// skipped (i, j) has its mirror test (j, i) performed while both
  /// entries were still alive, and at most one orientation of a pair can
  /// ever be skipped.
  std::size_t predictive_skipped = 0;
  std::size_t pruned = 0;       ///< Solutions fully invalidated.
  /// Partial-domain prunes: tests after which the victim's valid region
  /// is smaller but not empty.  A test whose region misses the victim's
  /// valid region removes nothing and is not counted.
  std::size_t pruned_partial = 0;
};

/// Prunes `set` to (a superset of) its minimal functional subset.
/// Solutions whose valid region empties are removed; others may come back
/// with a reduced `valid`.  Order of survivors: sorted by (cost, cap).
/// A non-null `stats` accumulates this call's work counters.  Throws
/// CheckError when `options.base_case` is 0.
SolutionSet ComputeMfs(SolutionSet set, const MfsOptions& options,
                       MfsStats* stats = nullptr);

}  // namespace msn

#endif  // MSN_CORE_MFS_H
