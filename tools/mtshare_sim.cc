// mtshare_sim — command-line runner for the mT-Share simulation stack.
//
// Examples:
//   mtshare_sim --scheme=mt-share --taxis=150 --requests=1500
//   mtshare_sim --scheme=mt-share-pro --window=nonpeak --offline=0.33
//   mtshare_sim --network=city.csv --scheme=pgreedy-dp --per-request=out.csv
//
// Flags (all --key=value):
//   --scheme       no-sharing | t-share | pgreedy-dp | mt-share |
//                  mt-share-pro            (default mt-share)
//   --window       peak | nonpeak          (default peak)
//   --taxis        fleet size              (default 150)
//   --requests     request count           (default 1500)
//   --offline      offline fraction        (default 0 peak / 0.32 nonpeak)
//   --rho          deadline flexibility    (default 1.3)
//   --kappa        partitions              (default 120)
//   --capacity     seats per taxi          (default 3)
//   --gamma        searching range, m      (default 2500)
//   --seed         RNG seed                (default 42)
//   --threads      matching worker threads (default 1; 0 = all cores;
//                  results identical for any value)
//   --oracle       auto | exact | lru | ch  (default auto: exact table for
//                  small graphs, contraction hierarchy for large ones;
//                  results identical for every backend). The candidate
//                  search follows the backend (DESIGN.md §14): last-stop
//                  CH bucket sweeps with detour-ellipse slot pruning on
//                  ch, each scheme's index scan otherwise.
//   --rows/--cols  generated city size     (default 48x48)
//   --network      edge-list CSV to load instead of generating
//   --batch-window-ms  batch-window ingest Δt, simulated ms (default 0 =
//                  dispatch each request at its own release boundary; see
//                  DESIGN.md §12)
//   --max-queue    admission cap on the pending dispatch queue (default 0
//                  = unbounded; arrivals past the cap are shed)
//   --save-requests  write the scenario's request log here (the wire
//                  format mtshare_serve ingests; see demand/trip_io.h)
//   --per-request  write a per-request CSV record here
//   --report       write a structured JSON run report here (percentiles,
//                  per-phase dispatch breakdown; see EXPERIMENTS.md)
//
// Any other flag is rejected (exit 2), so a misspelt or retired flag never
// silently runs the default configuration.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/string_util.h"
#include "core/mtshare_system.h"
#include "demand/trip_io.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "sim/run_report.h"

using namespace mtshare;

namespace {

/// Every flag main() reads (the header above documents them).
const char* const kFlags[] = {
    "help", "scheme", "window", "taxis", "requests", "offline", "rho", "kappa",
    "capacity", "gamma", "seed", "threads", "oracle", "rows", "cols", "network",
    "batch-window-ms", "max-queue", "save-requests", "per-request", "report",
};

bool KnownFlag(const std::string& key) {
  for (const char* flag : kFlags) {
    if (key == flag) return true;
  }
  return false;
}

/// Parses --key=value flags. Positional arguments and unknown keys are
/// errors, reported on stderr with the offending argument.
std::map<std::string, std::string> ParseArgs(int argc, char** argv,
                                             bool* ok) {
  std::map<std::string, std::string> args;
  *ok = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      *ok = false;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos
                                              ? std::string::npos
                                              : eq - 2);
    if (!KnownFlag(key)) {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      *ok = false;
      continue;
    }
    args[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return args;
}

/// Strict numeric flag lookup: malformed values ("abc", "12x", "") are a
/// hard error instead of silently becoming 0 via atoi-style parsing.
double GetD(const std::map<std::string, std::string>& args,
            const std::string& key, double fallback, bool* ok) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  double value = 0.0;
  if (!ParseDouble(Trim(it->second), &value)) {
    std::fprintf(stderr, "invalid numeric value for --%s: '%s'\n",
                 key.c_str(), it->second.c_str());
    *ok = false;
    return fallback;
  }
  return value;
}

/// Strict non-negative integer flag (counts: taxis, requests, threads...).
int32_t GetCount(const std::map<std::string, std::string>& args,
                 const std::string& key, int32_t fallback, bool* ok) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  int64_t value = 0;
  if (!ParseInt64(Trim(it->second), &value) || value < 0 ||
      value > INT32_MAX) {
    std::fprintf(stderr,
                 "invalid value for --%s: '%s' (want an integer >= 0)\n",
                 key.c_str(), it->second.c_str());
    *ok = false;
    return fallback;
  }
  return static_cast<int32_t>(value);
}

std::string GetS(const std::map<std::string, std::string>& args,
                 const std::string& key, const std::string& fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

/// Strict unsigned 64-bit flag (RNG seeds). A double-based parse would
/// silently round seeds above 2^53 and make negative inputs UB on the
/// cast; ParseUint64 keeps full precision up to UINT64_MAX and rejects
/// signs and garbage outright.
uint64_t GetU64(const std::map<std::string, std::string>& args,
                const std::string& key, uint64_t fallback, bool* ok) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  uint64_t value = 0;
  if (!ParseUint64(Trim(it->second), &value)) {
    std::fprintf(stderr,
                 "invalid value for --%s: '%s' (want an unsigned integer)\n",
                 key.c_str(), it->second.c_str());
    *ok = false;
    return fallback;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  bool ok = true;
  auto args = ParseArgs(argc, argv, &ok);
  if (!ok || args.count("help")) {
    std::fprintf(stderr, "see the header of tools/mtshare_sim.cc for usage\n");
    return args.count("help") ? 0 : 2;
  }

  std::optional<SchemeKind> scheme = ParseScheme(GetS(args, "scheme", "mt-share"));
  if (!scheme.has_value()) {
    std::fprintf(stderr, "unknown --scheme\n");
    return 2;
  }
  const bool peak = GetS(args, "window", "peak") == "peak";
  const uint64_t seed = GetU64(args, "seed", 42, &ok);

  // City: generated or loaded.
  RoadNetwork network;
  std::string network_file = GetS(args, "network", "");
  GridCityOptions gopt;
  gopt.rows = GetCount(args, "rows", 48, &ok);
  gopt.cols = GetCount(args, "cols", 48, &ok);
  gopt.seed = seed;

  SystemConfig config;
  config.kappa = GetCount(args, "kappa", 120, &ok);
  config.kt = std::min<int32_t>(config.kappa, 20);
  config.rho = GetD(args, "rho", 1.3, &ok);
  config.taxi_capacity = GetCount(args, "capacity", 3, &ok);
  config.matching.gamma_max_m = GetD(args, "gamma", 2500.0, &ok);
  if (!ParseOracleBackend(GetS(args, "oracle", "auto"), &config.oracle.backend)) {
    std::fprintf(stderr, "unknown --oracle (want auto|exact|lru|ch)\n");
    return 2;
  }
  config.seed = seed;

  ScenarioOptions sopt;
  sopt.t_begin = (peak ? 8 : 10) * 3600.0;
  sopt.t_end = sopt.t_begin + 3600.0;
  sopt.num_requests = GetCount(args, "requests", 1500, &ok);
  sopt.offline_fraction = GetD(args, "offline", peak ? 0.0 : 0.32, &ok);
  sopt.rho = config.rho;
  sopt.seed = seed + 2;

  const int32_t num_taxis = GetCount(args, "taxis", 150, &ok);
  const int32_t num_threads = GetCount(args, "threads", 1, &ok);
  const double batch_window_ms = GetD(args, "batch-window-ms", 0.0, &ok);
  if (ok && batch_window_ms < 0.0) {
    std::fprintf(stderr, "--batch-window-ms must be >= 0\n");
    ok = false;
  }
  const int32_t max_queue = GetCount(args, "max-queue", 0, &ok);
  if (!ok) return 2;  // every malformed flag already printed its error

  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", valid.ToString().c_str());
    return 2;
  }

  if (!network_file.empty()) {
    Result<RoadNetwork> loaded = LoadEdgeList(network_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load network: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    network = std::move(loaded).value();
    network = ExtractLargestScc(network);
  } else {
    network = MakeGridCity(gopt);
  }

  DemandModelOptions dopt;
  dopt.day = peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = seed + 1;
  DemandModel demand(network, dopt);
  // Scenario generation issues scattered point queries; don't pay CH
  // preprocessing for them (every backend returns identical costs anyway).
  OracleOptions scratch;
  if (network.num_vertices() > scratch.max_exact_vertices) {
    scratch.backend = OracleBackend::kLru;
  }
  DistanceOracle oracle(network, scratch);

  Scenario scenario = MakeScenario(network, demand, oracle, sopt);

  auto system =
      MTShareSystem::Create(network, scenario.HistoricalOdPairs(), config);
  if (!system.ok()) {
    std::fprintf(stderr, "system: %s\n", system.status().ToString().c_str());
    return 2;
  }
  std::string save_requests = GetS(args, "save-requests", "");
  if (!save_requests.empty()) {
    Status saved = SaveRequestLog(save_requests, scenario.requests);
    if (!saved.ok()) {
      std::fprintf(stderr, "save-requests: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("request log written to %s\n", save_requests.c_str());
  }

  ScenarioSpec spec;
  spec.scheme = *scheme;
  spec.requests = &scenario.requests;
  spec.num_taxis = num_taxis;
  spec.fleet_seed = seed + 3;
  spec.num_threads = num_threads;
  spec.batch_window_ms = batch_window_ms;
  spec.max_queue = max_queue;
  Result<Metrics> run = system.value()->RunScenario(spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 2;
  }
  Metrics m = std::move(run).value();

  std::printf("scheme=%s window=%s taxis=%d requests=%zu offline=%d\n",
              SchemeName(*scheme), peak ? "peak" : "nonpeak", spec.num_taxis,
              scenario.requests.size(), scenario.CountOffline());
  std::printf("served=%d (online=%d offline=%d)\n", m.ServedRequests(),
              m.ServedOnline(), m.ServedOffline());
  std::printf("response_ms=%.3f wait_min=%.2f detour_min=%.2f\n",
              m.MeanResponseMs(), m.MeanWaitingMinutes(),
              m.MeanDetourMinutes());
  std::printf("fare_saving=%.1f%% driver_income=%.0f exec_s=%.2f\n",
              m.MeanFareSaving() * 100.0, m.total_driver_income,
              m.execution_seconds);
  std::printf(
      "oracle=%s settled_vertices=%lld ch_upward_settled=%lld "
      "ch_shortcuts=%lld\n",
      m.oracle_backend.c_str(),
      static_cast<long long>(m.routing.settled_vertices),
      static_cast<long long>(m.routing.ch_upward_settled),
      static_cast<long long>(m.routing.ch_shortcuts));

  std::string report_path = GetS(args, "report", "");
  if (!report_path.empty()) {
    RunReportContext ctx;
    ctx.experiment = "mtshare_sim";
    ctx.scheme = SchemeName(*scheme);
    ctx.window = peak ? "peak" : "nonpeak";
    ctx.num_taxis = spec.num_taxis;
    ctx.num_requests = static_cast<int32_t>(scenario.requests.size());
    ctx.seed = seed;
    Status written = WriteRunReport(report_path, ctx, m);
    if (!written.ok()) {
      std::fprintf(stderr, "report: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("run report written to %s\n", report_path.c_str());
  }

  std::string per_request = GetS(args, "per-request", "");
  if (!per_request.empty()) {
    std::ofstream out(per_request);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", per_request.c_str());
      return 1;
    }
    out << "id,offline,completed,release,pickup,dropoff,direct_s,"
           "response_ms,taxi,regular_fare,shared_fare\n";
    for (const RequestRecord& r : m.records()) {
      out << r.id << "," << r.offline << "," << r.completed << ","
          << r.release_time << "," << r.pickup_time << "," << r.dropoff_time
          << "," << r.direct_cost << "," << r.response_ms << "," << r.taxi
          << "," << r.regular_fare << "," << r.shared_fare << "\n";
    }
    std::printf("per-request records written to %s\n", per_request.c_str());
  }
  return 0;
}
