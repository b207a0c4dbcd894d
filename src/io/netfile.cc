#include "io/netfile.h"

#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace msn {

ParseError::ParseError(std::size_t line, const std::string& message)
    : CheckError(line == 0
                     ? message
                     : "line " + std::to_string(line) + ": " + message),
      line_(line) {}

namespace {

/// Throws ParseError for malformed input at `line` (0 = whole file).
[[noreturn]] void FailAt(std::size_t line, const std::string& message) {
  throw ParseError(line, message);
}

const char* KindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kTerminal: return "terminal";
    case NodeKind::kSteiner: return "steiner";
    case NodeKind::kInsertion: return "insertion";
  }
  return "?";
}

NodeKind ParseKind(const std::string& token, std::size_t line) {
  if (token == "terminal") return NodeKind::kTerminal;
  if (token == "steiner") return NodeKind::kSteiner;
  if (token == "insertion") return NodeKind::kInsertion;
  FailAt(line, "unknown node kind '" + token + "'");
}

struct NodeRecord {
  NodeKind kind;
  Point pos;
  std::size_t line = 0;  ///< Of the `node` record.
};

struct EdgeRecord {
  NodeId a, b;
  double length;
  std::size_t line = 0;  ///< Of the `edge` record.
};

/// The structure RcTree::Validate requires, checked record by record so
/// that each violation names the line that causes it: every edge joins
/// two distinct nodes by a non-negative length without closing a cycle,
/// terminals are leaves, insertion points have degree 2, and the edges
/// connect all nodes (a whole-file error, since no one record is at
/// fault).  Node ids are known to be dense.
void CheckEdges(const std::map<NodeId, NodeRecord>& nodes,
                const std::vector<EdgeRecord>& edges) {
  const std::size_t n = nodes.size();
  std::vector<NodeId> root(n);
  std::iota(root.begin(), root.end(), NodeId{0});
  const auto find = [&root](NodeId x) {
    while (root[x] != x) {
      root[x] = root[root[x]];
      x = root[x];
    }
    return x;
  };
  std::vector<std::size_t> degree(n, 0);
  for (const EdgeRecord& e : edges) {
    for (const NodeId end : {e.a, e.b}) {
      if (end >= n) {
        FailAt(e.line, "edge endpoint " + std::to_string(end) +
                           " is not a node");
      }
    }
    if (e.a == e.b) {
      FailAt(e.line, "edge joins node " + std::to_string(e.a) + " to itself");
    }
    if (!(e.length >= 0.0)) FailAt(e.line, "negative wire length");
    const NodeId ra = find(e.a);
    const NodeId rb = find(e.b);
    if (ra == rb) FailAt(e.line, "edge closes a cycle");
    root[ra] = rb;
    ++degree[e.a];
    ++degree[e.b];
  }
  for (const auto& [id, rec] : nodes) {
    if (rec.kind == NodeKind::kTerminal && degree[id] > 1) {
      FailAt(rec.line, "terminal node " + std::to_string(id) +
                           " has degree " + std::to_string(degree[id]) +
                           "; a terminal must be a leaf");
    }
    if (rec.kind == NodeKind::kInsertion && degree[id] != 2) {
      FailAt(rec.line, "insertion point " + std::to_string(id) +
                           " has degree " + std::to_string(degree[id]) +
                           "; it must have degree 2");
    }
  }
  if (edges.size() + 1 != n) {
    FailAt(0, "a net of " + std::to_string(n) + " nodes needs " +
                  std::to_string(n - 1) + " edges, found " +
                  std::to_string(edges.size()));
  }
}

}  // namespace

void WriteNet(std::ostream& os, const RcTree& tree) {
  // Full round-trip precision: re-reading must reproduce the same doubles.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "msn-net 1\n";
  os << "wire " << tree.Wire().res_per_um << ' ' << tree.Wire().cap_per_um
     << '\n';
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    const RcNode& n = tree.Node(v);
    os << "node " << v << ' ' << KindName(n.kind) << ' ' << n.pos.x << ' '
       << n.pos.y << '\n';
  }
  for (std::size_t t = 0; t < tree.NumTerminals(); ++t) {
    const TerminalParams& p = tree.Terminal(t);
    os << "terminal " << tree.TerminalNode(t) << ' ' << p.arrival_ps << ' '
       << p.downstream_ps << ' ' << (p.is_source ? 1 : 0) << ' '
       << (p.is_sink ? 1 : 0) << ' ' << p.driver.pin_cap << ' '
       << p.driver.driver_res << ' ' << p.driver.driver_intrinsic_ps << ' '
       << p.driver.arrival_extra_ps << ' ' << p.driver.downstream_extra_ps
       << ' ' << p.driver.cost << '\n';
  }
  for (const RcEdge& e : tree.Edges()) {
    os << "edge " << e.a << ' ' << e.b << ' ' << e.length_um << '\n';
  }
  os << "end\n";
  os.precision(old_precision);
}

RcTree ReadNet(std::istream& is) {
  std::optional<WireParams> wire;
  std::map<NodeId, NodeRecord> nodes;
  std::map<NodeId, TerminalParams> terminals;
  std::vector<EdgeRecord> edges;
  bool saw_header = false;
  bool saw_end = false;

  std::string line;
  std::size_t line_no = 0;
  while (!saw_end && std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;  // Blank or comment-only.

    if (tag == "msn-net") {
      int version = 0;
      if (!(ls >> version) || version != 1) {
        FailAt(line_no, "unsupported msn-net version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) FailAt(line_no, "missing 'msn-net 1' header");
    if (tag == "wire") {
      WireParams w;
      if (!(ls >> w.res_per_um >> w.cap_per_um)) {
        FailAt(line_no, "malformed wire record");
      }
      wire = w;
    } else if (tag == "node") {
      NodeId id;
      std::string kind;
      NodeRecord rec;
      if (!(ls >> id >> kind >> rec.pos.x >> rec.pos.y)) {
        FailAt(line_no, "malformed node record");
      }
      rec.kind = ParseKind(kind, line_no);
      rec.line = line_no;
      if (!nodes.emplace(id, rec).second) {
        FailAt(line_no, "duplicate node " + std::to_string(id));
      }
    } else if (tag == "terminal") {
      NodeId id;
      TerminalParams p;
      int is_source = 1, is_sink = 1;
      if (!(ls >> id >> p.arrival_ps >> p.downstream_ps >> is_source >>
            is_sink >> p.driver.pin_cap >> p.driver.driver_res >>
            p.driver.driver_intrinsic_ps >> p.driver.arrival_extra_ps >>
            p.driver.downstream_extra_ps >> p.driver.cost)) {
        FailAt(line_no, "malformed terminal record");
      }
      p.is_source = is_source != 0;
      p.is_sink = is_sink != 0;
      p.driver.name = "from-file";
      if (!terminals.emplace(id, p).second) {
        FailAt(line_no, "duplicate terminal at node " + std::to_string(id));
      }
    } else if (tag == "edge") {
      EdgeRecord e;
      if (!(ls >> e.a >> e.b >> e.length)) {
        FailAt(line_no, "malformed edge record");
      }
      e.line = line_no;
      edges.push_back(e);
    } else if (tag == "end") {
      saw_end = true;
    } else {
      FailAt(line_no, "unknown record '" + tag + "'");
    }
  }
  if (!saw_end) FailAt(0, "missing 'end' record");
  if (!wire.has_value()) FailAt(0, "missing wire record");
  if (nodes.empty()) FailAt(0, "net has no nodes");

  // Ids must be dense 0..n-1 (std::map iterates in order).
  NodeId expected = 0;
  for (const auto& [id, rec] : nodes) {
    if (id != expected) {
      FailAt(0, "node ids must be dense; missing node " +
                    std::to_string(expected));
    }
    ++expected;
  }

  CheckEdges(nodes, edges);

  RcTree tree(*wire);
  for (const auto& [id, rec] : nodes) {
    if (rec.kind == NodeKind::kTerminal) {
      const auto it = terminals.find(id);
      if (it == terminals.end()) {
        FailAt(0, "terminal node " + std::to_string(id) +
                      " has no terminal record");
      }
      tree.AddTerminal(it->second, rec.pos);
    } else {
      tree.AddNode(rec.kind, rec.pos);
    }
  }
  if (terminals.size() != tree.NumTerminals()) {
    FailAt(0, "terminal record for a non-terminal node");
  }
  for (const EdgeRecord& e : edges) {
    tree.AddEdge(e.a, e.b, e.length);
  }
  tree.Validate();
  return tree;
}

void WriteSolution(std::ostream& os, const RcTree& tree,
                   const TradeoffPoint& point) {
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    if (!point.repeaters.Has(v)) continue;
    const PlacedRepeater& r = *point.repeaters.At(v);
    os << "repeater " << v << ' ' << r.repeater_index << ' '
       << r.a_side_neighbor << '\n';
  }
  for (std::size_t t = 0; t < point.drivers.NumTerminals(); ++t) {
    if (!point.drivers.At(t)) continue;
    const TerminalOption& o = *point.drivers.At(t);
    os << "driver " << t << ' ' << o.cost << ' ' << o.arrival_extra_ps
       << ' ' << o.driver_res << ' ' << o.driver_intrinsic_ps << ' '
       << o.pin_cap << ' ' << o.downstream_extra_ps << ' '
       << (o.name.empty() ? "unnamed" : o.name) << '\n';
  }
  for (std::size_t e = 0; e < point.wire_widths.size(); ++e) {
    if (point.wire_widths[e] == 1.0) continue;
    os << "width " << e << ' ' << point.wire_widths[e] << '\n';
  }
  os.precision(old_precision);
}

SolutionFile ReadSolution(std::istream& is, const RcTree& tree) {
  SolutionFile sol(tree);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;
    if (tag == "repeater") {
      NodeId v, a_side;
      std::size_t index;
      if (!(ls >> v >> index >> a_side)) {
        FailAt(line_no, "malformed repeater record");
      }
      if (v >= tree.NumNodes() ||
          tree.Node(v).kind != NodeKind::kInsertion) {
        FailAt(line_no, "repeater must sit on an insertion point");
      }
      sol.repeaters.Place(v, PlacedRepeater{index, a_side});
    } else if (tag == "driver") {
      std::size_t t;
      TerminalOption o;
      if (!(ls >> t >> o.cost >> o.arrival_extra_ps >> o.driver_res >>
            o.driver_intrinsic_ps >> o.pin_cap >> o.downstream_extra_ps >>
            o.name)) {
        FailAt(line_no, "malformed driver record");
      }
      if (t >= tree.NumTerminals()) {
        FailAt(line_no, "terminal out of range");
      }
      sol.drivers.Choose(t, std::move(o));
    } else if (tag == "width") {
      std::size_t e;
      double w;
      if (!(ls >> e >> w)) {
        FailAt(line_no, "malformed width record");
      }
      if (e >= tree.NumEdges()) {
        FailAt(line_no, "edge index out of range");
      }
      if (sol.wire_widths.empty()) {
        sol.wire_widths.assign(tree.NumEdges(), 1.0);
      }
      sol.wire_widths[e] = w;
    } else {
      FailAt(line_no, "unknown record '" + tag + "'");
    }
  }
  return sol;
}

RcTree RoundTripNet(const RcTree& tree) {
  std::stringstream ss;
  WriteNet(ss, tree);
  return ReadNet(ss);
}

}  // namespace msn
