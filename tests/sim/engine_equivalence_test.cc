// The engine's shortcuts must not change decisions: a release boundary the
// deferral gate skips must land on the digest the per-boundary walk
// produced (committed while the full-fleet sweep core still existed and
// agreed with it), and the lazy FleetSync materialization hook must put a
// taxi exactly where stepping every arc would.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "matching/no_sharing.h"
#include "sim/engine.h"
#include "sim/taxi.h"

namespace mtshare {
namespace {

Metrics RunOnce(SchemeKind scheme, uint64_t seed, bool serve_offline) {
  GridCityOptions gopt;
  gopt.rows = 16;
  gopt.cols = 16;
  gopt.seed = seed;
  RoadNetwork net = MakeGridCity(gopt);

  DemandModelOptions dopt;
  dopt.seed = seed + 1;
  DemandModel demand(net, dopt);
  DistanceOracle oracle(net);
  ScenarioOptions sopt;
  sopt.num_requests = 160;
  sopt.num_historical_trips = 2500;
  sopt.offline_fraction = 0.2;
  sopt.seed = seed + 2;
  Scenario scenario = MakeScenario(net, demand, oracle, sopt);

  SystemConfig config;
  config.kappa = 16;
  config.kt = 5;
  // Fresh system per run: dispatcher, indexes, and oracle caches all start
  // cold, so counter comparisons see identical initial state.
  MTShareSystem system(net, scenario.HistoricalOdPairs(), config);

  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.requests = &scenario.requests;
  spec.num_taxis = 24;
  spec.fleet_seed = seed + 3;
  spec.serve_offline = serve_offline;
  Result<Metrics> run = system.RunScenario(spec);
  EXPECT_TRUE(run.ok()) << run.status();
  return std::move(run).value();
}

TEST(EngineEquivalenceTest, DeferredBoundariesStayEquivalent) {
  // No-Sharing ignores offline requests entirely, so their release
  // boundaries are deferrable: the engine must skip them (that is the
  // point) and still land on the undeferred decisions.
  Metrics no_sharing = RunOnce(SchemeKind::kNoSharing, 73,
                               /*serve_offline=*/true);
  EXPECT_GT(no_sharing.engine.boundaries_deferred, 0);
  EXPECT_EQ(DecisionDigest(no_sharing), 0x08498aba74a1fba4ull);

  // serve_offline=false makes every offline boundary deferrable for the
  // sharing baselines too.
  Metrics t_share_off = RunOnce(SchemeKind::kTShare, 91,
                                /*serve_offline=*/false);
  EXPECT_GT(t_share_off.engine.boundaries_deferred, 0);
  EXPECT_EQ(DecisionDigest(t_share_off), 0xbc9b0587a0dea9d0ull);

  // mT-Share's clustering is update-order sensitive; the gate must keep it
  // on strict per-boundary advancement.
  Metrics mt_off = RunOnce(SchemeKind::kMtShare, 91, /*serve_offline=*/false);
  EXPECT_EQ(mt_off.engine.boundaries_deferred, 0);
}

RoadNetwork LineCity() {
  RoadNetwork::Builder b(10.0);
  for (int i = 0; i < 10; ++i) b.AddVertex({i * 100.0, 0.0});
  for (int i = 0; i + 1 < 10; ++i) b.AddBidirectionalEdge(i, i + 1, 100.0);
  return b.Build();
}

TEST(LazySyncTest, MidArcSyncMatchesEagerStepping) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> lazy_fleet(1);
  lazy_fleet[0].id = 0;
  lazy_fleet[0].location = 0;
  MatchingConfig config;
  NoSharingDispatcher lazy_dispatcher(net, &oracle, &lazy_fleet, config);
  EngineOptions lazy_opts;
  lazy_opts.serve_offline = false;
  SimulationEngine lazy_engine(net, &lazy_dispatcher, &lazy_fleet, lazy_opts);

  // 9 arcs of 100 m at 10 m/s: the taxi reaches vertex k at t = 10k.
  std::vector<VertexId> path;
  for (VertexId v = 0; v < 10; ++v) path.push_back(v);
  ApplyPlan(&lazy_fleet[0], net, Schedule(), path, {}, 0.0,
            /*probabilistic_route=*/false);

  // Materialize through the dispatcher-facing hook at a mid-arc time:
  // t = 35 is between the arrivals at vertex 3 (t=30) and vertex 4 (t=40).
  // Eager stepping would have driven exactly three arcs by then.
  FleetSync* lazy_sync = &lazy_engine;
  lazy_sync->SyncTaxi(0, 35.0);

  EXPECT_EQ(lazy_fleet[0].location, 3);
  EXPECT_DOUBLE_EQ(lazy_fleet[0].location_time, 30.0);
  EXPECT_EQ(lazy_fleet[0].route_pos, 3u);
  EXPECT_DOUBLE_EQ(lazy_fleet[0].driven_meters, 300.0);

  // Re-syncing at the same instant is a no-op (nothing newly due).
  lazy_sync->SyncTaxi(0, 35.0);
  EXPECT_EQ(lazy_fleet[0].route_pos, 3u);
  EXPECT_DOUBLE_EQ(lazy_fleet[0].driven_meters, 300.0);

  // Syncing far past the route end drains it completely.
  lazy_sync->SyncTaxi(0, 1000.0);
  EXPECT_EQ(lazy_fleet[0].location, 9);
  EXPECT_DOUBLE_EQ(lazy_fleet[0].location_time, 90.0);
  EXPECT_FALSE(lazy_fleet[0].HasRoute());
  EXPECT_DOUBLE_EQ(lazy_fleet[0].driven_meters, 900.0);
}

}  // namespace
}  // namespace mtshare
