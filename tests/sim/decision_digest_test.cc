// Golden decision digests. Every case runs the whole system on the exact
// table (index candidate search) and on the contraction hierarchy (bucket
// candidate search), and both runs must reproduce the committed
// DecisionDigest. The goldens were generated while the engine's sweep
// core, per-pair insertion routing and the candidate-search switch still
// existed, and every combination of them on both backends hit the same
// values; they stand in for those deleted paths as the equivalence oracle.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "sim/metrics.h"

namespace mtshare {
namespace {

struct GoldenCase {
  const char* name;
  SchemeKind scheme;
  /// Grid side; 16 is the small equivalence city, 48 the bench city, 70 a
  /// city above OracleOptions::max_exact_vertices.
  int32_t side;
  uint64_t seed;
  bool peak;
  int32_t requests;
  double offline_fraction;
  int32_t taxis;
  uint64_t golden;
};

// Keeps the test names ctest lists stable: gtest would otherwise print
// the case's raw bytes, pointer included.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

struct CaseInputs {
  RoadNetwork network;
  Scenario scenario;
};

CaseInputs MakeInputs(const GoldenCase& c) {
  GridCityOptions gopt;
  gopt.rows = c.side;
  gopt.cols = c.side;
  if (c.side == 16) {
    gopt.seed = c.seed;  // the small city of the equivalence suites
  } else {
    gopt.spacing_m = 150.0;  // bench/bench_common.cc MakeBenchCity
    gopt.jitter_m = 25.0;
    gopt.seed = 20200961;
  }
  CaseInputs in;
  in.network = MakeGridCity(gopt);

  DemandModelOptions dopt;
  dopt.day = c.peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = c.seed + 1;
  DemandModel demand(in.network, dopt);
  OracleOptions scratch;
  scratch.backend = OracleBackend::kExact;
  DistanceOracle oracle(in.network, scratch);
  ScenarioOptions sopt;
  if (c.side != 16) {
    sopt.t_begin = (c.peak ? 8 : 10) * 3600.0;
    sopt.t_end = sopt.t_begin + 3600.0;
  }
  sopt.num_requests = c.requests;
  sopt.num_historical_trips = c.side == 16 ? 2500 : 8000;
  sopt.offline_fraction = c.offline_fraction;
  sopt.seed = c.seed + 2;
  in.scenario = MakeScenario(in.network, demand, oracle, sopt);
  return in;
}

uint64_t RunDigest(const GoldenCase& c, const CaseInputs& in,
                   OracleBackend backend) {
  SystemConfig config;
  if (c.side == 16) {
    config.kappa = 16;
    config.kt = 5;
  }
  config.oracle.backend = backend;
  // Fresh system per run: indexes and bucket stores start cold.
  MTShareSystem system(in.network, in.scenario.HistoricalOdPairs(), config);
  EXPECT_EQ(system.oracle().backend(), backend);

  ScenarioSpec spec;
  spec.scheme = c.scheme;
  spec.requests = &in.scenario.requests;
  spec.num_taxis = c.taxis;
  spec.fleet_seed = c.seed + 3;
  Result<Metrics> run = system.RunScenario(spec);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return 0;
  const Metrics& m = run.value();
  EXPECT_GT(m.ServedRequests(), 0);
  // The candidate path follows the backend.
  EXPECT_EQ(m.routing.bucket_search, backend == OracleBackend::kCh);
  return DecisionDigest(m);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

class DecisionDigestTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DecisionDigestTest, MatchesGoldenOnExactAndCh) {
  const GoldenCase& c = GetParam();
  const CaseInputs in = MakeInputs(c);
  if (c.side == 70) {
    // The large case sits above the exact-table limit: the default backend
    // resolves to the contraction hierarchy there.
    EXPECT_GT(in.network.num_vertices(), OracleOptions{}.max_exact_vertices);
  }
  for (OracleBackend backend : {OracleBackend::kExact, OracleBackend::kCh}) {
    EXPECT_EQ(Hex(RunDigest(c, in, backend)), Hex(c.golden))
        << c.name << " on " << OracleBackendName(backend);
  }
}

constexpr SchemeKind kNo = SchemeKind::kNoSharing;
constexpr SchemeKind kT = SchemeKind::kTShare;
constexpr SchemeKind kPg = SchemeKind::kPGreedyDp;
constexpr SchemeKind kMt = SchemeKind::kMtShare;
constexpr SchemeKind kPro = SchemeKind::kMtSharePro;

INSTANTIATE_TEST_SUITE_P(
    Goldens, DecisionDigestTest,
    ::testing::Values(
        GoldenCase{"small_no_sharing_11", kNo, 16, 11, true, 160, 0.2, 24,
                   0xfbb8ba7529c401abull},
        GoldenCase{"small_t_share_11", kT, 16, 11, true, 160, 0.2, 24,
                   0x74e5396f8ab76109ull},
        GoldenCase{"small_pgreedy_dp_11", kPg, 16, 11, true, 160, 0.2, 24,
                   0x3305ce5d75a92232ull},
        GoldenCase{"small_mt_share_11", kMt, 16, 11, true, 160, 0.2, 24,
                   0x71bd32669237a259ull},
        GoldenCase{"small_mt_share_pro_11", kPro, 16, 11, true, 160, 0.2, 24,
                   0x838852102099dfc1ull},
        GoldenCase{"small_no_sharing_29", kNo, 16, 29, true, 160, 0.2, 24,
                   0x33c870da50300b4aull},
        GoldenCase{"small_t_share_29", kT, 16, 29, true, 160, 0.2, 24,
                   0x8ee5c98f294d6265ull},
        GoldenCase{"small_pgreedy_dp_29", kPg, 16, 29, true, 160, 0.2, 24,
                   0xd997153bb28703a7ull},
        GoldenCase{"small_mt_share_29", kMt, 16, 29, true, 160, 0.2, 24,
                   0xc2f07b28eb801bd3ull},
        GoldenCase{"small_mt_share_pro_29", kPro, 16, 29, true, 160, 0.2, 24,
                   0x7974d4d225496a1cull},
        GoldenCase{"small_no_sharing_73", kNo, 16, 73, true, 160, 0.2, 24,
                   0x08498aba74a1fba4ull},
        GoldenCase{"bench48_mt_share_peak", kMt, 48, 61, true, 400, 0.0, 60,
                   0x847d7f60b4030566ull},
        GoldenCase{"bench48_mt_share_pro_nonpeak", kPro, 48, 67, false, 400,
                   0.32, 60, 0x1d9fe3fce0c3fed0ull},
        GoldenCase{"ch70_mt_share_peak", kMt, 70, 71, true, 300, 0.0, 60,
                   0x66cc41c4f74f70baull}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mtshare
