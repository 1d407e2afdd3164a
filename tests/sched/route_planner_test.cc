#include "sched/route_planner.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "partition/bipartite_partitioner.h"

namespace mtshare {
namespace {

class RoutePlannerTest : public ::testing::Test {
 protected:
  RoutePlannerTest() {
    GridCityOptions opt;
    opt.rows = 16;
    opt.cols = 16;
    opt.seed = 13;
    net_ = MakeGridCity(opt);
    partitioning_ = GridPartition(net_, 16);
    lg_ = std::make_unique<LandmarkGraph>(net_, partitioning_);
    oracle_ = std::make_unique<DistanceOracle>(net_);

    // Simple history: every vertex sends trips toward the max-x edge so
    // the east side carries encounter mass.
    VertexId east = 0;
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      if (net_.coord(v).x > net_.coord(east).x) east = v;
    }
    std::vector<OdPair> trips;
    Rng rng(3);
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      if (v != east) trips.emplace_back(v, east);
    }
    transitions_ = TransitionModel::Build(
        net_.num_vertices(), partitioning_.num_partitions(),
        partitioning_.vertex_partition, trips);
    planner_ = std::make_unique<RoutePlanner>(
        net_, partitioning_, *lg_, &transitions_, oracle_.get(),
        RoutePlannerOptions{});
  }

  RideRequest MakeRequest(VertexId o, VertexId d, Seconds t, double rho) {
    RideRequest r;
    r.id = 0;
    r.origin = o;
    r.destination = d;
    r.release_time = t;
    r.direct_cost = oracle_->Cost(o, d);
    r.deadline = t + rho * r.direct_cost;
    return r;
  }

  RoadNetwork net_;
  MapPartitioning partitioning_;
  std::unique_ptr<LandmarkGraph> lg_;
  std::unique_ptr<DistanceOracle> oracle_;
  TransitionModel transitions_;
  std::unique_ptr<RoutePlanner> planner_;
};

TEST_F(RoutePlannerTest, BasicLegNearShortestPathCost) {
  // Partition filtering trades exact optimality for pruning: the filtered
  // leg can exceed the true shortest path when the optimum weaves through
  // direction-rule-pruned partitions, but must stay within a modest
  // stretch and usually matches exactly.
  DijkstraSearch reference(net_);
  Rng rng(7);
  int exact = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    VertexId a = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId b = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    Path leg = planner_->PlanBasicLeg(a, b);
    ASSERT_TRUE(leg.valid) << a << "->" << b;
    Seconds optimum = reference.Cost(a, b);
    EXPECT_GE(leg.cost, optimum - 1e-9) << a << "->" << b;
    // Cost-rule slack bound: stretch stays within (1 + epsilon) = 2.
    EXPECT_LE(leg.cost, optimum * 2.0 + 1e-9) << a << "->" << b;
    if (std::abs(leg.cost - optimum) < 1e-9) ++exact;
  }
  EXPECT_GE(exact, trials / 2);
}

TEST_F(RoutePlannerTest, BasicLegTrivialForSameVertex) {
  Path leg = planner_->PlanBasicLeg(5, 5);
  ASSERT_TRUE(leg.valid);
  EXPECT_DOUBLE_EQ(leg.cost, 0.0);
}

TEST_F(RoutePlannerTest, PlanRouteEmptyScheduleValid) {
  auto planned = planner_->PlanRoute(3, 100.0, Schedule(), false);
  EXPECT_TRUE(planned.valid);
  EXPECT_TRUE(planned.event_arrivals.empty());
}

TEST_F(RoutePlannerTest, PlanRouteArrivalsMonotoneAndDeadlineSafe) {
  RideRequest r = MakeRequest(0, net_.num_vertices() - 1, 0.0, 1.6);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  auto planned = planner_->PlanRoute(10, 0.0, s, false);
  ASSERT_TRUE(planned.valid);
  ASSERT_EQ(planned.event_arrivals.size(), 2u);
  EXPECT_LE(planned.event_arrivals[0], planned.event_arrivals[1]);
  EXPECT_LE(planned.event_arrivals[1], r.deadline + 1e-9);
  // The route's vertices trace pickup then dropoff.
  EXPECT_EQ(planned.path.front(), 10);
  EXPECT_EQ(planned.path.back(), r.destination);
}

TEST_F(RoutePlannerTest, PlanRouteRejectsImpossibleDeadline) {
  RideRequest r = MakeRequest(0, net_.num_vertices() - 1, 0.0, 1.2);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  // Taxi starts at the far corner: approach alone blows the slack.
  auto planned = planner_->PlanRoute(net_.num_vertices() - 1, 0.0, s, false);
  EXPECT_FALSE(planned.valid);
}

TEST_F(RoutePlannerTest, EncounterMassHigherTowardTripSinks) {
  // Taxi heading east (all trips end east): east-side partitions must have
  // positive mass.
  Point east_dir{1000.0, 0.0};
  double max_mass = 0.0;
  for (PartitionId p = 0; p < partitioning_.num_partitions(); ++p) {
    max_mass = std::max(max_mass,
                        planner_->PartitionEncounterMass(p, east_dir));
  }
  EXPECT_GT(max_mass, 0.0);
}

TEST_F(RoutePlannerTest, ProbabilisticLegRespectsBudget) {
  DijkstraSearch reference(net_);
  VertexId a = 0;
  VertexId b = net_.num_vertices() - 1;
  Seconds shortest = reference.Cost(a, b);
  Point dir{net_.coord(b).x - net_.coord(a).x,
            net_.coord(b).y - net_.coord(a).y};
  Path leg = planner_->PlanProbabilisticLeg(a, b, dir, shortest * 1.5);
  if (leg.valid) {
    EXPECT_LE(leg.cost, shortest * 1.5 + 1e-9);
    EXPECT_GE(leg.cost, shortest - 1e-9);
    EXPECT_EQ(leg.front(), a);
    EXPECT_EQ(leg.back(), b);
  }
  // With a generous budget a valid leg must exist.
  Path generous = planner_->PlanProbabilisticLeg(a, b, dir, shortest * 10.0);
  EXPECT_TRUE(generous.valid);
}

TEST_F(RoutePlannerTest, ProbabilisticFailsOnImpossibleBudget) {
  VertexId a = 0;
  VertexId b = net_.num_vertices() - 1;
  Point dir{1.0, 1.0};
  Path leg = planner_->PlanProbabilisticLeg(a, b, dir, 1.0 /*one second*/);
  EXPECT_FALSE(leg.valid);
  EXPECT_GT(planner_->probabilistic_fallbacks(), 0);
}

TEST_F(RoutePlannerTest, ProbabilisticRouteFollowsMass) {
  // With slack, the probabilistic leg should accumulate at least as much
  // per-vertex encounter mass as the shortest path does.
  DijkstraSearch reference(net_);
  VertexId a = 0;
  VertexId b = net_.num_vertices() - 1;
  Point dir{net_.coord(b).x - net_.coord(a).x,
            net_.coord(b).y - net_.coord(a).y};
  Path shortest = reference.FindPath(a, b);
  Path prob = planner_->PlanProbabilisticLeg(a, b, dir, shortest.cost * 2.0);
  ASSERT_TRUE(prob.valid);

  auto mass_of = [&](const Path& p) {
    double acc = 0.0;
    for (VertexId v : p.vertices) {
      PartitionId part = partitioning_.PartitionOf(v);
      acc += planner_->PartitionEncounterMass(part, dir) /
             std::max<size_t>(1, partitioning_.partition_vertices[part].size());
    }
    return acc;
  };
  EXPECT_GE(mass_of(prob), mass_of(shortest) * 0.8);
}

TEST_F(RoutePlannerTest, ProbPlanRouteFallsBackAndStaysFeasible) {
  RideRequest r = MakeRequest(0, net_.num_vertices() - 1, 0.0, 1.25);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  Point dir{1.0, 0.0};
  auto planned = planner_->PlanRoute(0, 0.0, s, /*probabilistic=*/true, dir);
  ASSERT_TRUE(planned.valid);
  EXPECT_LE(planned.event_arrivals[1], r.deadline + 1e-9);
}

TEST_F(RoutePlannerTest, HopBoundKeepsTheRecordedLegs) {
  // Every leg below spans at least four partition hops, so with
  // max_path_hops = 4 almost every partial landmark path exceeds the cap
  // before it can reach the target partition; the enumeration prunes
  // those subtrees up front. The expected legs were recorded before that
  // prune existed: pruning subtrees that hold no path must not change
  // which paths are found, nor their order.
  RoutePlannerOptions options;
  options.max_path_hops = 4;
  RoutePlanner planner(net_, partitioning_, *lg_, &transitions_,
                       oracle_.get(), options);
  struct Leg {
    VertexId from;
    VertexId to;
    std::vector<VertexId> vertices;  // empty: no partition path in reach
  };
  const std::vector<Leg> legs = {
      {0, 153, {0, 1, 2, 3, 4, 5, 21, 22, 23, 39, 55, 71, 87, 103, 104, 120,
                136, 137, 153}},
      {17, 187, {17, 18, 34, 35, 36, 37, 38, 54, 55, 71, 87, 103, 104, 120,
                 136, 137, 138, 154, 170, 171, 187}},
      {32, 140, {}},
      {48, 110, {48, 49, 50, 51, 52, 53, 54, 55, 56, 72, 88, 89, 90, 91, 92,
                 93, 94, 110}},
      {64, 143, {64, 65, 66, 67, 68, 69, 85, 86, 87, 103, 104, 120, 121, 122,
                 123, 124, 125, 141, 142, 143}},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(std::to_string(leg.from) + "->" + std::to_string(leg.to));
    Point dir{net_.coord(leg.to).x - net_.coord(leg.from).x,
              net_.coord(leg.to).y - net_.coord(leg.from).y};
    Path path = planner.PlanProbabilisticLeg(
        leg.from, leg.to, dir, oracle_->Cost(leg.from, leg.to) * 2.0);
    EXPECT_EQ(path.valid, !leg.vertices.empty());
    EXPECT_EQ(path.vertices, leg.vertices);
  }
}

TEST_F(RoutePlannerTest, LegCountersAdvance) {
  int64_t b0 = planner_->basic_legs();
  planner_->PlanBasicLeg(0, 20);
  EXPECT_EQ(planner_->basic_legs(), b0 + 1);
  int64_t p0 = planner_->probabilistic_legs();
  planner_->PlanProbabilisticLeg(0, 20, Point{1, 0}, 1e9);
  EXPECT_EQ(planner_->probabilistic_legs(), p0 + 1);
}

}  // namespace
}  // namespace mtshare
