#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/graph_generators.h"
#include "routing/distance_oracle.h"
#include "routing/reference_rows.h"

namespace mtshare {
namespace {

// Runs in mtshare_thread_tests so the tsan preset checks it: many threads
// hammer one CH-backed oracle with point, one-to-many, and many-to-many
// queries at once. The engine pool must hand every thread its own ChQuery
// (stateful buffers) and the counters must not race; every answer must
// still equal the precomputed Dijkstra reference bit for bit.
TEST(ChConcurrencyTest, ConcurrentQueriesMatchDijkstra) {
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 67;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions oopt;
  oopt.backend = OracleBackend::kCh;
  DistanceOracle oracle(net, oopt);

  // Reference rows, computed before any threads start.
  const int32_t n = net.num_vertices();
  std::vector<std::vector<Seconds>> reference(n);
  for (VertexId v = 0; v < n; ++v) {
    reference[v] = testing::ReferenceRow(net, v);
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 40;
  ThreadPool pool(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::future<void>> futures;
  for (int w = 0; w < kThreads; ++w) {
    futures.push_back(pool.Submit([&, w] {
      Rng rng(671 + uint64_t(w));
      std::vector<VertexId> sources, targets;
      std::vector<Seconds> got;
      for (int round = 0; round < kRoundsPerThread; ++round) {
        VertexId s = VertexId(rng.NextInt(0, n - 1));
        VertexId t = VertexId(rng.NextInt(0, n - 1));
        if (oracle.Cost(s, t) != reference[s][t]) mismatches.fetch_add(1);

        targets.clear();
        for (int i = 0; i < 6; ++i) {
          targets.push_back(VertexId(rng.NextInt(0, n - 1)));
        }
        oracle.CostMany(s, targets, &got);
        for (size_t i = 0; i < targets.size(); ++i) {
          if (got[i] != reference[s][targets[i]]) mismatches.fetch_add(1);
        }

        sources.clear();
        for (int i = 0; i < 3; ++i) {
          sources.push_back(VertexId(rng.NextInt(0, n - 1)));
        }
        oracle.CostManyToMany(sources, targets, &got);
        for (size_t a = 0; a < sources.size(); ++a) {
          for (size_t b = 0; b < targets.size(); ++b) {
            if (got[a * targets.size() + b] !=
                reference[sources[a]][targets[b]]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(mismatches.load(), 0);

  // Counter sanity: every round issued 1 point + 1 CostMany + 3 m2m-source
  // queries; the pool saw at most kThreads engines.
  EXPECT_EQ(oracle.queries(), int64_t(kThreads) * kRoundsPerThread * 5);
  EXPECT_EQ(oracle.batch_queries(), int64_t(kThreads) * kRoundsPerThread * 2);
  ChQueryStats stats = oracle.ch_query_stats();
  EXPECT_GT(stats.point_queries, 0);
  EXPECT_GT(stats.bucket_queries, 0);
}

// Eight threads fill the exact table at once, all asking for the same few
// sources in different orders, so fills of one row race each other and
// PHAST sweeps of different rows run concurrently on the shared
// hierarchy. Every row must be filled exactly once and equal its
// Dijkstra reference bit for bit.
TEST(ChConcurrencyTest, ConcurrentExactRowFillsMatchDijkstra) {
  GridCityOptions gopt;
  gopt.rows = 12;
  gopt.cols = 12;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 69;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  ASSERT_EQ(oracle.backend(), OracleBackend::kExact);
  const int32_t n = net.num_vertices();
  constexpr int kSources = 24;
  std::vector<VertexId> sources;
  std::vector<std::vector<Seconds>> reference;
  for (int i = 0; i < kSources; ++i) {
    sources.push_back(VertexId((int64_t(i) * 37) % n));
    reference.push_back(testing::ReferenceRow(net, sources.back()));
  }

  constexpr int kThreads = 8;
  ThreadPool pool(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::future<void>> futures;
  for (int w = 0; w < kThreads; ++w) {
    futures.push_back(pool.Submit([&, w] {
      std::vector<VertexId> all(n);
      for (VertexId v = 0; v < n; ++v) all[v] = v;
      std::vector<Seconds> got;
      for (int i = 0; i < kSources; ++i) {
        const int at = (i * (w + 1) + w) % kSources;
        if (oracle.Row(sources[at]) != reference[at]) mismatches.fetch_add(1);
        oracle.CostMany(sources[at], all, &got);
        if (got != reference[at]) mismatches.fetch_add(1);
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(oracle.row_misses(), kSources);
  EXPECT_EQ(oracle.row_hits() + oracle.row_misses(),
            int64_t(kThreads) * kSources * 2);
  EXPECT_GT(oracle.row_fill_ms(), 0.0);
}

}  // namespace
}  // namespace mtshare
