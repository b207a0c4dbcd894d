#include "io/netfile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.h"
#include "core/ard.h"
#include "core/msri.h"
#include "netgen/netgen.h"
#include "test_util.h"

namespace msn {
namespace {

TEST(NetFile, RoundTripPreservesStructure) {
  const Technology tech = DefaultTechnology();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    NetConfig cfg;
    cfg.seed = seed;
    cfg.num_terminals = 7;
    const RcTree tree = BuildExperimentNet(cfg, tech);
    const RcTree copy = RoundTripNet(tree);
    ASSERT_EQ(copy.NumNodes(), tree.NumNodes());
    ASSERT_EQ(copy.NumEdges(), tree.NumEdges());
    ASSERT_EQ(copy.NumTerminals(), tree.NumTerminals());
    ASSERT_EQ(copy.InsertionPoints().size(),
              tree.InsertionPoints().size());
    for (NodeId v = 0; v < tree.NumNodes(); ++v) {
      EXPECT_EQ(copy.Node(v).kind, tree.Node(v).kind);
      EXPECT_EQ(copy.Node(v).pos, tree.Node(v).pos);
      EXPECT_EQ(copy.Node(v).terminal_index, tree.Node(v).terminal_index);
    }
    for (std::size_t e = 0; e < tree.NumEdges(); ++e) {
      EXPECT_EQ(copy.Edge(e).a, tree.Edge(e).a);
      EXPECT_EQ(copy.Edge(e).b, tree.Edge(e).b);
      EXPECT_DOUBLE_EQ(copy.Edge(e).length_um, tree.Edge(e).length_um);
    }
  }
}

TEST(NetFile, RoundTripPreservesTiming) {
  const Technology tech = DefaultTechnology();
  NetConfig cfg;
  cfg.seed = 11;
  cfg.num_terminals = 8;
  RcTree tree = BuildExperimentNet(cfg, tech);
  tree.MutableTerminal(2).arrival_ps = 123.0;
  tree.MutableTerminal(5).is_source = false;
  const RcTree copy = RoundTripNet(tree);
  // Electrically identical nets yield bit-comparable ARD.
  EXPECT_NEAR(ComputeArd(copy, tech).ard_ps, ComputeArd(tree, tech).ard_ps,
              1e-9);
  EXPECT_DOUBLE_EQ(copy.Terminal(2).arrival_ps, 123.0);
  EXPECT_FALSE(copy.Terminal(5).is_source);
}

TEST(NetFile, SolutionRoundTrip) {
  const Technology tech = DefaultTechnology();
  NetConfig cfg;
  cfg.seed = 4;
  cfg.num_terminals = 6;
  const RcTree tree = BuildExperimentNet(cfg, tech);

  MsriOptions opt;
  opt.size_drivers = true;
  opt.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0});
  const MsriResult result = RunMsri(tree, tech, opt);
  const TradeoffPoint* best = result.MinArd();
  ASSERT_NE(best, nullptr);

  std::stringstream ss;
  WriteSolution(ss, tree, *best);
  const SolutionFile sol = ReadSolution(ss, tree);

  const double orig =
      ComputeArd(tree, best->repeaters, best->drivers, tech).ard_ps;
  const double loaded =
      ComputeArd(tree, sol.repeaters, sol.drivers, tech).ard_ps;
  EXPECT_NEAR(loaded, orig, 1e-9);
  EXPECT_EQ(sol.repeaters.CountPlaced(), best->num_repeaters);
}

TEST(NetFile, WireWidthsRoundTrip) {
  const Technology tech = testing::SmallTech();
  const RcTree tree = testing::TwoPinLine(tech, 4000.0, 3);
  TradeoffPoint p{0.0,
                  0.0,
                  RepeaterAssignment(tree.NumNodes()),
                  DriverAssignment(tree.NumTerminals()),
                  0,
                  std::vector<double>(tree.NumEdges(), 1.0)};
  p.wire_widths[1] = 2.0;
  p.wire_widths[3] = 3.0;
  std::stringstream ss;
  WriteSolution(ss, tree, p);
  const SolutionFile sol = ReadSolution(ss, tree);
  ASSERT_EQ(sol.wire_widths.size(), tree.NumEdges());
  EXPECT_DOUBLE_EQ(sol.wire_widths[0], 1.0);
  EXPECT_DOUBLE_EQ(sol.wire_widths[1], 2.0);
  EXPECT_DOUBLE_EQ(sol.wire_widths[3], 3.0);
}

TEST(NetFile, CommentsAndBlankLinesIgnored) {
  std::stringstream ss;
  ss << "# a tiny two-pin net\n"
     << "msn-net 1\n\n"
     << "wire 0.04 0.000118  # ohm/um, pF/um\n"
     << "node 0 terminal 0 0\n"
     << "node 1 terminal 1000 0\n"
     << "terminal 0 0 0 1 1 0.05 180 36.4 20 72.4 2\n"
     << "terminal 1 0 0 1 1 0.05 180 36.4 20 72.4 2\n"
     << "edge 0 1 1000\n"
     << "end\n";
  const RcTree tree = ReadNet(ss);
  EXPECT_EQ(tree.NumTerminals(), 2u);
  EXPECT_DOUBLE_EQ(tree.Terminal(0).driver.driver_res, 180.0);
}

TEST(NetFile, MalformedInputsRejectedWithLineNumbers) {
  auto expect_throw = [](const std::string& text, const char* what) {
    std::stringstream ss(text);
    try {
      ReadNet(ss);
      FAIL() << "expected failure: " << what;
    } catch (const CheckError& e) {
      SUCCEED();
    }
  };
  expect_throw("node 0 terminal 0 0\n", "missing header");
  expect_throw("msn-net 2\nend\n", "bad version");
  expect_throw("msn-net 1\nwire 0.04 0.0001\nend\n", "no nodes");
  expect_throw(
      "msn-net 1\nwire 0.04 0.0001\nnode 0 bogus 0 0\nend\n",
      "bad kind");
  expect_throw(
      "msn-net 1\nwire 0.04 0.0001\nnode 0 steiner 0 0\n"
      "node 0 steiner 1 1\nend\n",
      "duplicate node");
  expect_throw(
      "msn-net 1\nwire 0.04 0.0001\nnode 0 steiner 0 0\n"
      "node 2 steiner 1 1\nend\n",
      "non-dense ids");
  expect_throw(
      "msn-net 1\nwire 0.04 0.0001\nnode 0 terminal 0 0\nend\n",
      "terminal without record");
}

/// A five-node net, one record per line: terminals 0, 1 and 4 around
/// Steiner node 2, with insertion point 3 between 0 and 2.  `edges`
/// replaces its four edge records (lines 11-14).
std::string StarNet(const std::string& edges) {
  return "msn-net 1\n"                                      // 1
         "wire 0.04 0.000118\n"                             // 2
         "node 0 terminal 0 0\n"                            // 3
         "node 1 terminal 1000 0\n"                         // 4
         "node 2 steiner 500 0\n"                           // 5
         "node 3 insertion 250 0\n"                         // 6
         "node 4 terminal 500 500\n"                        // 7
         "terminal 0 0 0 1 1 0.05 180 36.4 20 72.4 2\n"     // 8
         "terminal 1 0 0 1 1 0.05 180 36.4 20 72.4 2\n"     // 9
         "terminal 4 0 0 1 1 0.05 180 36.4 20 72.4 2\n" +   // 10
         edges + "end\n";
}

const char* const kStarEdges =
    "edge 0 3 250\nedge 3 2 250\nedge 2 1 500\nedge 2 4 500\n";

/// ReadNet rejects `text` with a ParseError at `line` whose message
/// contains `what`.
void ExpectParseErrorAt(const std::string& text, std::size_t line,
                        const std::string& what) {
  std::stringstream ss(text);
  try {
    ReadNet(ss);
    ADD_FAILURE() << "accepted; expected: " << what;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.Line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(NetFile, StarNetIsValid) {
  std::stringstream ss(StarNet(kStarEdges));
  const RcTree tree = ReadNet(ss);
  EXPECT_EQ(tree.NumEdges(), 4u);
  EXPECT_EQ(tree.InsertionPoints().size(), 1u);
}

TEST(NetFile, EdgeToMissingNodeNamesItsLine) {
  ExpectParseErrorAt(StarNet("edge 0 3 250\nedge 3 2 250\nedge 2 9 500\n"
                             "edge 2 4 500\n"),
                     13, "edge endpoint 9 is not a node");
}

TEST(NetFile, SelfLoopNamesItsLine) {
  ExpectParseErrorAt(StarNet("edge 0 3 250\nedge 3 2 250\nedge 2 2 500\n"
                             "edge 2 4 500\n"),
                     13, "edge joins node 2 to itself");
}

TEST(NetFile, NegativeWireLengthNamesItsLine) {
  ExpectParseErrorAt(StarNet("edge 0 3 250\nedge 3 2 250\nedge 2 1 -5\n"
                             "edge 2 4 500\n"),
                     13, "negative wire length");
}

TEST(NetFile, CycleNamesTheEdgeThatClosesIt) {
  ExpectParseErrorAt(StarNet(std::string(kStarEdges) + "edge 0 2 10\n"), 15,
                     "edge closes a cycle");
}

TEST(NetFile, NonLeafTerminalNamesItsNodeLine) {
  ExpectParseErrorAt(StarNet("edge 0 3 250\nedge 3 2 250\nedge 2 1 500\n"
                             "edge 1 4 500\n"),
                     4, "terminal node 1 has degree 2");
}

TEST(NetFile, InsertionPointDegreeNamesItsNodeLine) {
  ExpectParseErrorAt(StarNet("edge 0 2 250\nedge 3 2 250\nedge 2 1 500\n"
                             "edge 2 4 500\n"),
                     6, "insertion point 3 has degree 1");
}

TEST(NetFile, DisconnectedNetIsAWholeFileError) {
  ExpectParseErrorAt(StarNet("edge 0 3 250\nedge 3 2 250\nedge 2 1 500\n"),
                     0, "a net of 5 nodes needs 4 edges, found 3");
}

TEST(NetFile, SolutionRejectsBadTargets) {
  const Technology tech = testing::SmallTech();
  const RcTree tree = testing::TwoPinLine(tech, 1000.0, 1);
  {
    std::stringstream ss("repeater 0 0 1\n");  // Node 0 is a terminal.
    EXPECT_THROW(ReadSolution(ss, tree), CheckError);
  }
  {
    std::stringstream ss("width 99 2.0\n");
    EXPECT_THROW(ReadSolution(ss, tree), CheckError);
  }
  {
    std::stringstream ss("driver 7 2 20 180 36.4 0.05 72.4 x\n");
    EXPECT_THROW(ReadSolution(ss, tree), CheckError);
  }
}

}  // namespace
}  // namespace msn
