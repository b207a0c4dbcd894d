#include "core/ard.h"

#include "common/check.h"
#include "common/numeric.h"
#include "elmore/caps.h"
#include "rctree/rooted.h"

namespace msn {
namespace {

constexpr std::size_t kNoTerminal = static_cast<std::size_t>(-1);

/// Per-subtree accumulator of Fig. 2: max augmented arrival at the
/// subtree's top interface (S), max augmented delay from the top interface
/// to an internal sink (t), and the internal diameter (D), each with the
/// terminal(s) realizing it.
struct SubtreeTiming {
  double arrival = -kInf;  ///< S_v.
  std::size_t arrival_source = kNoTerminal;
  double sink_delay = -kInf;  ///< t_v.
  std::size_t sink_terminal = kNoTerminal;
  double diameter = -kInf;  ///< D_v.
  std::size_t diameter_source = kNoTerminal;
  std::size_t diameter_sink = kNoTerminal;
};

}  // namespace

ArdResult ComputeArd(const RcTree& tree, const RepeaterAssignment& repeaters,
                     const DriverAssignment& drivers, const Technology& tech,
                     NodeId root, obs::StatsSink* sink) {
  const obs::ScopedTimer total_timer(sink != nullptr ? sink->ard_total
                                                     : nullptr);
  if (root == kNoNode) root = 0;
  // Pass 1 (rooting): orient the tree.  A buffered insertion point cannot
  // serve as the orientation root (the decoupling logic needs the repeater
  // between a parent and a child); walk to the nearest unbuffered node —
  // the ARD is root-independent and terminals are never buffered, so the
  // walk terminates.  A repeater on any other node is rejected before its
  // two edges are read.
  const RootedTree rooted = [&] {
    const obs::ScopedTimer timer(sink != nullptr ? sink->ard_rooting
                                                 : nullptr);
    NodeId prev = kNoNode;
    while (repeaters.Has(root)) {
      const auto& adj = tree.AdjacentEdges(root);
      MSN_CHECK_MSG(adj.size() == 2,
                    "repeater must sit on a degree-2 insertion point");
      const RcEdge& e0 = tree.Edge(adj[0]);
      const NodeId n0 = e0.a == root ? e0.b : e0.a;
      const RcEdge& e1 = tree.Edge(adj[1]);
      const NodeId n1 = e1.a == root ? e1.b : e1.a;
      const NodeId next = n0 == prev ? n1 : n0;
      prev = root;
      root = next;
    }
    return RootedTree(tree, root);
  }();
  // Pass 2 (capacitance): eqs. (1)-(2) up/down capacitances per node.
  const CapAnalysis caps = [&] {
    const obs::ScopedTimer timer(sink != nullptr ? sink->ard_caps
                                                 : nullptr);
    return ComputeCaps(rooted, repeaters, drivers, tech);
  }();
  const std::vector<EffectiveTerminal> terms =
      ResolveTerminals(tree, drivers);

  // Pass 3 (combine): the single depth-first accumulation of Fig. 2.
  const obs::ScopedTimer combine_timer(sink != nullptr ? sink->ard_combine
                                                       : nullptr);
  std::vector<SubtreeTiming> acc(tree.NumNodes());
  const std::vector<NodeId>& pre = rooted.Preorder();

  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const NodeId v = *it;
    SubtreeTiming& a = acc[v];
    const RcNode& node = tree.Node(v);

    // Load the parent side presents to a driver at v (zero at the root).
    const double up_load =
        rooted.Parent(v) == kNoNode
            ? 0.0
            : rooted.ParentCap(v) + caps.cup[v];

    // The terminal at v acts as a "virtual child": its source arrival and
    // sink delay seed S_v / t_v but are never paired with each other
    // (u ≠ v in Definition 2.1).
    if (node.kind == NodeKind::kTerminal) {
      const EffectiveTerminal& term = terms[node.terminal_index];
      if (term.is_source) {
        // Elmore: the driver's resistance sees every capacitance of the
        // net (with repeater decoupling), in both directions.
        a.arrival = term.arrival_ps + term.driver_intrinsic_ps +
                    term.driver_res * (caps.down_load[v] + up_load);
        a.arrival_source = node.terminal_index;
      }
      if (term.is_sink) {
        a.sink_delay = term.downstream_ps;
        a.sink_terminal = node.terminal_index;
      }
    }

    for (const NodeId c : rooted.Children(v)) {
      const SubtreeTiming& child = acc[c];
      const double wire_up =
          rooted.ParentRes(c) * (rooted.ParentCap(c) / 2.0 + caps.cup[c]);
      const double wire_down =
          rooted.ParentRes(c) * (rooted.ParentCap(c) / 2.0 + caps.cdown[c]);
      const double arrival_in = child.arrival + wire_up;
      const double sink_in = wire_down + child.sink_delay;

      // Cross pairs between this child and everything accumulated so far
      // (earlier children and the terminal at v).
      if (child.diameter > a.diameter) {
        a.diameter = child.diameter;
        a.diameter_source = child.diameter_source;
        a.diameter_sink = child.diameter_sink;
      }
      if (a.arrival + sink_in > a.diameter) {
        a.diameter = a.arrival + sink_in;
        a.diameter_source = a.arrival_source;
        a.diameter_sink = child.sink_terminal;
      }
      if (arrival_in + a.sink_delay > a.diameter) {
        a.diameter = arrival_in + a.sink_delay;
        a.diameter_source = child.arrival_source;
        a.diameter_sink = a.sink_terminal;
      }
      if (arrival_in > a.arrival) {
        a.arrival = arrival_in;
        a.arrival_source = child.arrival_source;
      }
      if (sink_in > a.sink_delay) {
        a.sink_delay = sink_in;
        a.sink_terminal = child.sink_terminal;
      }
    }

    // A repeater at v re-drives both directions and decouples them.
    if (repeaters.Has(v)) {
      const ResolvedRepeater r = repeaters.Resolve(v, tech);
      const NodeId parent = rooted.Parent(v);
      MSN_CHECK_MSG(rooted.Children(v).size() == 1 && parent != kNoNode,
                    "repeater must sit on a degree-2 insertion point");
      const NodeId child = rooted.Children(v)[0];
      a.arrival += r.IntrinsicFrom(child) + r.ResFrom(child) * up_load;
      a.sink_delay = r.IntrinsicFrom(parent) +
                     r.ResFrom(parent) * caps.down_load[v] + a.sink_delay;
    }
  }

  const SubtreeTiming& top = acc[root];
  ArdResult result;
  result.ard_ps = top.diameter;
  result.critical_source = top.diameter_source;
  result.critical_sink = top.diameter_sink;
  if (top.diameter == -kInf) {
    result.critical_source = kNoTerminal;
    result.critical_sink = kNoTerminal;
  }
  return result;
}

ArdResult ComputeArd(const RcTree& tree, const Technology& tech,
                     obs::StatsSink* sink) {
  return ComputeArd(tree, RepeaterAssignment(tree.NumNodes()),
                    DriverAssignment(tree.NumTerminals()), tech, kNoNode,
                    sink);
}

}  // namespace msn
