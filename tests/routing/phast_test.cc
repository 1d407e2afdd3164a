#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/reference_rows.h"

namespace mtshare {
namespace {

using testing::ReferenceRow;
using testing::ReferenceRowTo;

// PHAST rows (ContractionHierarchy::RowFrom / RowTo) must equal Dijkstra
// rows bit for bit: arc costs are dyadic, so every path sum is exact and
// the minimum over up-down paths is the same double. Every comparison is
// EXPECT_EQ on doubles, kInfiniteCost entries included.
void ExpectRowsMatch(const RoadNetwork& net, const std::vector<VertexId>& roots,
                     const ChOptions& options = {}) {
  const ContractionHierarchy ch = ContractionHierarchy::Build(net, options);
  for (VertexId root : roots) {
    const std::vector<Seconds> from = ch.RowFrom(root);
    const std::vector<Seconds> to = ch.RowTo(root);
    ASSERT_EQ(from, ReferenceRow(net, root)) << "forward row of " << root;
    ASSERT_EQ(to, ReferenceRowTo(net, root)) << "reverse row of " << root;
  }
}

std::vector<VertexId> AllVertices(const RoadNetwork& net) {
  std::vector<VertexId> all(net.num_vertices());
  for (VertexId v = 0; v < net.num_vertices(); ++v) all[v] = v;
  return all;
}

TEST(PhastTest, RowFromMatchesPairwiseDijkstra) {
  GridCityOptions opt;
  opt.rows = 7;
  opt.cols = 7;
  RoadNetwork net = MakeGridCity(opt);
  const ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DijkstraSearch search(net);
  const std::vector<Seconds> row = ch.RowFrom(0);
  ASSERT_EQ(row.size(), size_t(net.num_vertices()));
  for (VertexId t = 0; t < net.num_vertices(); ++t) {
    EXPECT_EQ(row[t], search.Cost(0, t)) << "0->" << t;
  }
}

TEST(PhastTest, TriangleRowsHoldExactCosts) {
  RoadNetwork::Builder b(1.0);  // 1 m/s: cost == length
  b.AddVertex({0, 0});
  b.AddVertex({10, 0});
  b.AddVertex({20, 0});
  b.AddEdge(0, 1, 10);
  b.AddEdge(1, 2, 10);
  b.AddEdge(0, 2, 25);
  b.AddEdge(2, 0, 5);
  RoadNetwork net = b.Build();
  const ContractionHierarchy ch = ContractionHierarchy::Build(net);
  EXPECT_EQ(ch.RowFrom(0), (std::vector<Seconds>{0.0, 10.0, 20.0}));
  EXPECT_EQ(ch.RowFrom(2), (std::vector<Seconds>{5.0, 15.0, 0.0}));
  EXPECT_EQ(ch.RowTo(0), (std::vector<Seconds>{0.0, 15.0, 5.0}));
}

TEST(PhastTest, BenchCityRowsEqualDijkstra) {
  // The 48x48 bench city the paper-scale workloads run on.
  GridCityOptions gopt;
  gopt.rows = 48;
  gopt.cols = 48;
  gopt.spacing_m = 150.0;
  gopt.jitter_m = 25.0;
  gopt.seed = 20200961;
  RoadNetwork net = MakeGridCity(gopt);
  Rng rng(4801);
  std::vector<VertexId> roots;
  for (int i = 0; i < 40; ++i) {
    roots.push_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)));
  }
  ExpectRowsMatch(net, roots);
}

TEST(PhastTest, RandomGeometricRowsEqualDijkstra) {
  RandomGeometricOptions ropt;
  ropt.num_vertices = 150;
  ropt.seed = 71;
  RoadNetwork net = MakeRandomGeometric(ropt);
  ExpectRowsMatch(net, AllVertices(net));
}

TEST(PhastTest, OneWayGridRowsEqualDijkstra) {
  // Asymmetric costs: forward and reverse rows genuinely differ.
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.one_way_fraction = 0.5;
  gopt.seed = 73;
  RoadNetwork net = MakeGridCity(gopt);
  ExpectRowsMatch(net, AllVertices(net));
}

TEST(PhastTest, StarvedWitnessSearchRowsEqualDijkstra) {
  // Redundant shortcuts from a truncated witness search must not change a
  // row either.
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  gopt.one_way_fraction = 0.25;
  gopt.seed = 79;
  RoadNetwork net = MakeGridCity(gopt);
  ChOptions copt;
  copt.witness_settle_limit = 1;
  ExpectRowsMatch(net, AllVertices(net), copt);
}

TEST(PhastTest, DisconnectedGraphRowsCarryInfinity) {
  // Two islands plus a one-way bridge 0->4, and an isolated vertex 8.
  RoadNetwork::Builder builder(10.0);
  for (int i = 0; i < 9; ++i) {
    builder.AddVertex(Point{double(i % 4) * 100.0, double(i / 4) * 100.0});
  }
  for (VertexId v = 0; v < 4; ++v) {
    builder.AddBidirectionalEdge(v, (v + 1) % 4, 130.0);
    builder.AddBidirectionalEdge(4 + v, 4 + (v + 1) % 4, 170.0);
  }
  builder.AddEdge(0, 4, 500.0);
  RoadNetwork net = builder.Build();
  ExpectRowsMatch(net, AllVertices(net));

  const ContractionHierarchy ch = ContractionHierarchy::Build(net);
  const std::vector<Seconds> from_island_b = ch.RowFrom(5);
  EXPECT_EQ(from_island_b[0], kInfiniteCost);  // the bridge is one-way
  EXPECT_EQ(from_island_b[8], kInfiniteCost);
  EXPECT_LT(ch.RowFrom(0)[6], kInfiniteCost);
  const std::vector<Seconds> to_isolated = ch.RowTo(8);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(to_isolated[v], kInfiniteCost);
  EXPECT_EQ(to_isolated[8], 0.0);
}

TEST(PhastTest, ParallelArcsAndSelfLoopsRowsEqualDijkstra) {
  // The contractor drops self-loops and keeps the cheapest of parallel
  // arcs; rows must still equal Dijkstra on the raw multigraph.
  GridCityOptions gopt;
  gopt.rows = 6;
  gopt.cols = 6;
  gopt.one_way_fraction = 0.3;
  gopt.seed = 83;
  RoadNetwork grid = MakeGridCity(gopt);
  RoadNetwork::Builder builder(grid.speed_mps());
  for (VertexId v = 0; v < grid.num_vertices(); ++v) {
    builder.AddVertex(grid.coord(v));
  }
  Rng rng(831);
  for (VertexId v = 0; v < grid.num_vertices(); ++v) {
    for (const Arc& arc : grid.OutArcs(v)) {
      builder.AddEdge(v, arc.head, arc.length_m);
      if (rng.NextDouble() < 0.3) {  // a cheaper or dearer parallel arc
        builder.AddEdge(v, arc.head, arc.length_m * (0.5 + rng.NextDouble()));
      }
    }
    if (v % 3 == 0) builder.AddEdge(v, v, 40.0);  // self-loop
  }
  RoadNetwork net = builder.Build();
  ExpectRowsMatch(net, AllVertices(net));
}

}  // namespace
}  // namespace mtshare
