#include "routing/last_stop_buckets.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/contraction_hierarchy.h"
#include "routing/reference_rows.h"

namespace mtshare {
namespace {

// The bucket store's contract is the CH subsystem's: BIT-IDENTICAL costs.
// Arc costs live on the dyadic grid, so deposit + sweep sums are exact and
// every comparison below is EXPECT_EQ on doubles.

RoadNetwork TestCity(uint64_t seed) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  gopt.one_way_fraction = 0.3;  // asymmetric distances
  gopt.seed = seed;
  return MakeGridCity(gopt);
}

/// Anchors every taxi at anchors[id] (one FlushDirty from the given map).
void Anchor(LastStopBuckets* buckets, const std::vector<VertexId>& anchors) {
  buckets->FlushDirty([&](TaxiId id) { return anchors[id]; });
}

TEST(LastStopBucketsTest, SweepMatchesDijkstraForEveryOriginWithinBudget) {
  RoadNetwork net = TestCity(41);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);

  const int32_t kTaxis = 12;
  Rng rng(7);
  std::vector<VertexId> anchors(kTaxis);
  for (VertexId& a : anchors) {
    a = static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
  }
  LastStopBuckets buckets(ch, kTaxis);
  Anchor(&buckets, anchors);

  // Directed ground truth anchor -> origin, per taxi.
  std::vector<std::vector<Seconds>> rows(kTaxis);
  for (TaxiId id = 0; id < kTaxis; ++id) {
    rows[id] = testing::ReferenceRow(net, anchors[id]);
  }

  const Seconds budget = 400.0;
  for (VertexId origin = 0; origin < net.num_vertices(); origin += 3) {
    buckets.Sweep(origin, budget);
    for (TaxiId id = 0; id < kTaxis; ++id) {
      const Seconds truth = rows[id][origin];
      const Seconds swept = buckets.SweptDistance(id);
      if (truth <= budget) {
        // Within budget the sweep reports the exact distance — the
        // accept/reject predicate `now + d <= deadline` cannot diverge
        // from a per-taxi oracle probe.
        EXPECT_EQ(swept, truth) << "taxi " << id << " origin " << origin;
      } else {
        // Beyond the (slack-widened) cutoff: absent or an over-budget
        // partial min; either way the exact re-check rejects it.
        EXPECT_GT(swept, budget) << "taxi " << id << " origin " << origin;
      }
    }
    // The found set is exactly the within-cutoff taxis (entries past the
    // cutoff are never recorded).
    for (TaxiId id : buckets.found()) {
      EXPECT_LE(buckets.SweptDistance(id),
                budget + LastStopBuckets::kBudgetSlack);
      EXPECT_EQ(buckets.SweptDistance(id), rows[id][origin]);
    }
  }
}

TEST(LastStopBucketsTest, DirtyChurnKeepsStoreExact) {
  RoadNetwork net = TestCity(43);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);

  const int32_t kTaxis = 8;
  Rng rng(11);
  std::vector<VertexId> anchors(kTaxis, 0);
  LastStopBuckets buckets(ch, kTaxis);
  Anchor(&buckets, anchors);

  // Move random subsets around repeatedly; after every flush the sweep
  // must read distances from the NEW anchors only — stale deposits of a
  // moved taxi may not survive (swap-pop removal integrity).
  for (int round = 0; round < 20; ++round) {
    for (TaxiId id = 0; id < kTaxis; ++id) {
      if (rng.NextInt(0, 2) == 0) {
        anchors[id] =
            static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
        buckets.MarkDirty(id);
        buckets.MarkDirty(id);  // idempotent
      }
    }
    Anchor(&buckets, anchors);
    const VertexId origin =
        static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
    buckets.Sweep(origin, kInfiniteCost);
    for (TaxiId id = 0; id < kTaxis; ++id) {
      EXPECT_EQ(buckets.SweptDistance(id),
                testing::ReferenceRow(net, anchors[id])[origin])
          << "round " << round << " taxi " << id;
      EXPECT_FALSE(buckets.dirty(id));
      EXPECT_EQ(buckets.anchor(id), anchors[id]);
    }
  }
}

TEST(LastStopBucketsTest, FlushSkipsCleanAndUnmovedTaxis) {
  RoadNetwork net = TestCity(47);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 4);
  std::vector<VertexId> anchors = {3, 14, 27, 30};
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 4);

  // Clean taxis are not re-deposited.
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 4);

  // Dirty but unmoved (marked on a schedule commit that kept the taxi in
  // place): the flush clears the flag without paying a rebuild.
  buckets.MarkDirty(1);
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 4);
  EXPECT_FALSE(buckets.dirty(1));

  // Actually moved: exactly one rebuild.
  anchors[2] = 55;
  buckets.MarkDirty(2);
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 5);
  EXPECT_EQ(buckets.anchor(2), 55);
}

TEST(LastStopBucketsTest, NegativeBudgetFindsNothing) {
  RoadNetwork net = TestCity(53);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 2);
  Anchor(&buckets, {5, 9});
  buckets.Sweep(5, -1.0);
  EXPECT_TRUE(buckets.found().empty());
  EXPECT_EQ(buckets.SweptDistance(0), kInfiniteCost);

  // Zero budget still finds the taxi standing on the origin.
  buckets.Sweep(5, 0.0);
  ASSERT_EQ(buckets.found().size(), 1u);
  EXPECT_EQ(buckets.found()[0], 0);
  EXPECT_EQ(buckets.SweptDistance(0), 0.0);
}

TEST(LastStopBucketsTest, StatsAndMemoryAccounting) {
  RoadNetwork net = TestCity(59);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 3);
  EXPECT_GT(buckets.MemoryBytes(), 0u);
  Anchor(&buckets, {1, 2, 3});
  buckets.Sweep(40, 600.0);
  const LastStopBucketStats& s = buckets.stats();
  EXPECT_EQ(s.updates, 3);
  EXPECT_EQ(s.sweeps, 1);
  EXPECT_EQ(s.found, static_cast<int64_t>(buckets.found().size()));
  EXPECT_GT(s.deposit_settled, 0);
  EXPECT_GT(s.sweep_settled, 0);
  EXPECT_GE(s.maintenance_ms, 0.0);
  EXPECT_GT(buckets.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace mtshare
