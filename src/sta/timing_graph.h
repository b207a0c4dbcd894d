// Design-wide static timing: topological arrival/required propagation and
// per-net spec derivation over a loaded Design (docs/STA.md).
//
// The graph has one timing node per primary port and per component pin
// (an inout pin becomes two nodes — drive and receive — so a
// bidirectional net never reads as a combinational cycle), and one edge
// per component arc plus one edge per (source terminal, sink terminal)
// pair of every net.  Arc edges carry the component's fixed pin-to-pin
// delay; all of a net's edges share one mutable delay annotation
// (SetNetDelayPs) that the closure loop updates from chosen repeater
// solutions.
//
// Propagate() runs the classic two passes over a topological order fixed
// at construction: arrivals forward (max over incoming edges; primary
// inputs seed their arrival_ps) and required times backward (min over
// outgoing edges; primary outputs seed their required_ps).  Slack is
// required minus arrival; endpoints are the primary-output ports.
//
// NetSpecPs derives the per-net ARD spec the paper's DP consumes:
// min over (source s, sink t) pairs of required(t) - arrival(s).  The
// spec deliberately excludes the net's own delay — arrival is upstream
// of the net and required downstream — so it answers "how slow may this
// net be before some endpoint goes negative".
#ifndef MSN_STA_TIMING_GRAPH_H
#define MSN_STA_TIMING_GRAPH_H

#include <cstddef>
#include <string>
#include <vector>

#include "sta/design.h"

namespace msn::sta {

/// One primary-output endpoint's slack after Propagate().
struct EndpointSlack {
  std::string name;
  double arrival_ps = 0.0;
  double required_ps = 0.0;
  double slack_ps = 0.0;  ///< required - arrival; +inf if unreached.
};

class TimingGraph {
 public:
  /// Builds nodes/edges from a loaded design and fixes the topological
  /// order.  Net delays start at 0; annotate with SetNetDelayPs before
  /// the first Propagate().  Throws ParseError (carrying the line of an
  /// involved arc or net) when the design has a combinational cycle.
  explicit TimingGraph(const Design& design);

  std::size_t NumNodes() const { return node_name_.size(); }
  std::size_t NumEdges() const { return edges_.size(); }
  std::size_t NumNets() const { return net_delay_ps_.size(); }
  const std::string& NodeName(std::size_t node) const {
    return node_name_[node];
  }

  double NetDelayPs(std::size_t net) const { return net_delay_ps_[net]; }
  void SetNetDelayPs(std::size_t net, double delay_ps) {
    net_delay_ps_[net] = delay_ps;
  }

  /// Forward arrival + backward required propagation.  Call after any
  /// SetNetDelayPs change; results are read by the accessors below.
  void Propagate();

  /// The derived ARD spec for `net`: min over (source, sink) terminal
  /// pairs of required(sink) - arrival(source).  +inf when the net is
  /// unconstrained (no finite required downstream or arrival upstream).
  double NetSpecPs(std::size_t net) const;

  /// spec - annotated delay: how much slack the net's current delay
  /// leaves its tightest through-path.
  double NetWorstSlackPs(std::size_t net) const {
    return NetSpecPs(net) - net_delay_ps_[net];
  }

  /// Per-endpoint (primary-output port) slacks, in port declaration
  /// order.
  std::vector<EndpointSlack> EndpointSlacks() const;

  /// min over endpoints of slack; +inf when no endpoint is both reached
  /// and constrained.
  double WorstSlackPs() const;

 private:
  struct Edge {
    std::size_t from = 0;
    std::size_t to = 0;
    /// Fixed arc delay; ignored (net_delay_ps_[net] applies) when
    /// `net != kNoIndex`.
    double delay_ps = 0.0;
    std::size_t net = kNoIndex;
    std::size_t line = 0;  ///< Arc or net declaration line.
  };

  double EdgeDelayPs(const Edge& e) const {
    return e.net == kNoIndex ? e.delay_ps : net_delay_ps_[e.net];
  }

  // Construction-time node numbering (see timing_graph.cc) — resolved
  // drive/receive node of an endpoint.
  std::size_t DriveNode(const Design& design, const Endpoint& e) const;
  std::size_t ReceiveNode(const Design& design, const Endpoint& e) const;

  std::vector<std::string> node_name_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> out_edges_;  ///< Edge indices.
  std::vector<std::vector<std::size_t>> in_edges_;
  std::vector<std::size_t> topo_order_;

  /// First node of each port (one node per port).
  std::vector<std::size_t> port_node_;
  /// Per component: first node of each pin (in/out: one node; inout: the
  /// drive node, receive node is +1).
  std::vector<std::vector<std::size_t>> pin_node_;

  /// Per net: the shared delay annotation and the (source node, sink
  /// node) pairs its edges connect.
  std::vector<double> net_delay_ps_;
  std::vector<std::vector<std::size_t>> net_edge_index_;

  /// Primary-output endpoint node per port index (kNoIndex for inputs).
  std::vector<std::size_t> endpoint_node_;

  std::vector<double> arrival_ps_;
  std::vector<double> required_ps_;

  const Design* design_;
};

}  // namespace msn::sta

#endif  // MSN_STA_TIMING_GRAPH_H
