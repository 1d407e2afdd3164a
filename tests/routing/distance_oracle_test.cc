#include "routing/distance_oracle.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/dijkstra.h"
#include "routing/reference_rows.h"

namespace mtshare {
namespace {

TEST(DistanceOracleTest, ExactModeMatchesDijkstra) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);  // small -> exact
  EXPECT_TRUE(oracle.exact_mode());
  DijkstraSearch dijkstra(net);
  Rng rng(91);
  for (int i = 0; i < 50; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    EXPECT_DOUBLE_EQ(oracle.Cost(s, t), dijkstra.Cost(s, t));
  }
}

TEST(DistanceOracleTest, EveryBackendCarriesTheHierarchy) {
  // Table and cache rows are PHAST sweeps over the oracle's own hierarchy;
  // each filled row must equal a Dijkstra row bit for bit, and the fill
  // time is accounted.
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  gopt.one_way_fraction = 0.3;
  gopt.seed = 97;
  RoadNetwork net = MakeGridCity(gopt);
  for (OracleBackend backend : {OracleBackend::kExact, OracleBackend::kLru}) {
    OracleOptions oopt;
    oopt.backend = backend;
    DistanceOracle oracle(net, oopt);
    ASSERT_NE(oracle.ch(), nullptr);
    EXPECT_GT(oracle.ch_build_stats().shortcuts_added, 0);
    EXPECT_EQ(oracle.row_fill_ms(), 0.0);
    EXPECT_GE(oracle.MemoryBytes(), oracle.ch()->MemoryBytes());
    std::vector<VertexId> all(net.num_vertices());
    for (VertexId v = 0; v < net.num_vertices(); ++v) all[v] = v;
    std::vector<Seconds> row;
    for (VertexId s = 0; s < net.num_vertices(); s += 5) {
      oracle.CostMany(s, all, &row);
      EXPECT_EQ(row, testing::ReferenceRow(net, s))
          << OracleBackendName(backend) << " row " << s;
    }
    EXPECT_GT(oracle.row_misses(), 0);
    EXPECT_GT(oracle.row_fill_ms(), 0.0);
    EXPECT_EQ(oracle.ch_query_stats().bucket_entries, 0);
  }
}

TEST(DistanceOracleTest, LruModeMatchesDijkstra) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions oopt;
  oopt.backend = OracleBackend::kLru;  // auto would now pick CH here
  oopt.max_exact_vertices = 10;
  oopt.lru_rows = 8;
  DistanceOracle oracle(net, oopt);
  EXPECT_FALSE(oracle.exact_mode());
  DijkstraSearch dijkstra(net);
  Rng rng(93);
  for (int i = 0; i < 80; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    EXPECT_DOUBLE_EQ(oracle.Cost(s, t), dijkstra.Cost(s, t));
  }
}

TEST(DistanceOracleTest, RowReuseAvoidsRecomputation) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  for (VertexId t = 0; t < net.num_vertices(); ++t) oracle.Cost(0, t);
  EXPECT_EQ(oracle.row_misses(), 1);
  EXPECT_EQ(oracle.queries(), net.num_vertices());
}

TEST(DistanceOracleTest, LruEvictionStillCorrect) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions oopt;
  oopt.backend = OracleBackend::kLru;  // auto would now pick CH here
  oopt.max_exact_vertices = 1;
  oopt.lru_rows = 2;  // tiny cache: constant eviction
  DistanceOracle oracle(net, oopt);
  DijkstraSearch dijkstra(net);
  // Cycle through 4 sources repeatedly.
  for (int round = 0; round < 3; ++round) {
    for (VertexId s = 0; s < 4; ++s) {
      EXPECT_DOUBLE_EQ(oracle.Cost(s, 20), dijkstra.Cost(s, 20));
    }
  }
  EXPECT_GT(oracle.row_misses(), 4);  // evictions forced recomputation
}

TEST(DistanceOracleTest, LruByteCapClampsRetainedRows) {
  // lru_rows was tuned on ~4.9k-vertex maps; on a 100k-vertex city the
  // same row count is gigabytes. lru_max_bytes clamps the retained rows
  // at construction: with a 1 KiB budget on 512-byte rows only 2 rows
  // survive, so cycling 4 sources must evict (uncapped: all 4 fit).
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions capped;
  capped.backend = OracleBackend::kLru;
  capped.lru_rows = 64;
  capped.lru_shards = 1;
  capped.lru_max_bytes = net.num_vertices() * sizeof(Seconds) * 2;
  OracleOptions uncapped = capped;
  uncapped.lru_max_bytes = 0;
  DistanceOracle capped_oracle(net, capped);
  DistanceOracle uncapped_oracle(net, uncapped);
  DijkstraSearch dijkstra(net);
  for (int round = 0; round < 3; ++round) {
    for (VertexId s = 0; s < 4; ++s) {
      EXPECT_DOUBLE_EQ(capped_oracle.Cost(s, 20), dijkstra.Cost(s, 20));
      EXPECT_DOUBLE_EQ(uncapped_oracle.Cost(s, 20), dijkstra.Cost(s, 20));
    }
  }
  EXPECT_GT(capped_oracle.row_misses(), 4);  // cap forced evictions
  EXPECT_EQ(uncapped_oracle.row_misses(), 4);  // all four rows retained
}

TEST(DistanceOracleTest, SelfCostIsZeroWithoutRowFetch) {
  GridCityOptions gopt;
  gopt.rows = 6;
  gopt.cols = 6;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  EXPECT_DOUBLE_EQ(oracle.Cost(5, 5), 0.0);
  EXPECT_EQ(oracle.row_misses(), 0);
}

TEST(DistanceOracleTest, ChEngineBytesStayAtTheirPeak) {
  // CH engines are measured when MemoryBytes() is called, not on every
  // query. Their buffers never shrink and pooled engines are never
  // destroyed, so once a large batch has grown them, smaller queries leave
  // the reported bytes unchanged.
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions copt;
  copt.backend = OracleBackend::kCh;
  DistanceOracle oracle(net, copt);
  std::vector<VertexId> all;
  for (VertexId v = 0; v < net.num_vertices(); ++v) all.push_back(v);
  std::vector<Seconds> matrix;
  oracle.CostManyToMany(all, all, &matrix);
  const size_t peak = oracle.MemoryBytes();
  EXPECT_GT(peak, oracle.ch()->MemoryBytes());
  std::vector<Seconds> row;
  oracle.CostMany(3, std::vector<VertexId>{7}, &row);
  oracle.Cost(1, 40);
  EXPECT_EQ(oracle.MemoryBytes(), peak);
  EXPECT_EQ(oracle.MemoryBytes(), peak);
}

TEST(DistanceOracleTest, MemoryGrowsWithRows) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  size_t before = oracle.MemoryBytes();
  oracle.Row(0);
  EXPECT_GT(oracle.MemoryBytes(), before);
}

}  // namespace
}  // namespace mtshare
