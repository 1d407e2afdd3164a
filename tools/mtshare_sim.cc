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
#include <cstdio>
#include <fstream>
#include <string>

#include "cli_flags.h"
#include "core/mtshare_system.h"
#include "demand/trip_io.h"
#include "sim/run_report.h"

using namespace mtshare;
using namespace mtshare::cli;

namespace {

/// Every flag main() reads (the header above documents them).
const char* const kFlags[] = {
    "help", "scheme", "window", "taxis", "requests", "offline", "rho", "kappa",
    "capacity", "gamma", "seed", "threads", "oracle", "rows", "cols", "network",
    "batch-window-ms", "max-queue", "save-requests", "per-request", "report",
};

}  // namespace

int main(int argc, char** argv) {
  bool ok = true;
  auto args = ParseArgs(argc, argv, kFlags, &ok);
  if (!ok || args.count("help")) {
    std::fprintf(stderr, "see the header of tools/mtshare_sim.cc for usage\n");
    return args.count("help") ? 0 : 2;
  }

  SystemFlags flags;
  if (!ReadSystemFlags(args, &flags, &ok)) return 2;
  const bool peak = flags.peak;
  const uint64_t seed = flags.seed;
  const SchemeKind scheme = flags.scheme;

  ScenarioOptions sopt;
  sopt.t_begin = (peak ? 8 : 10) * 3600.0;
  sopt.t_end = sopt.t_begin + 3600.0;
  sopt.num_requests = GetCount(args, "requests", 1500, &ok);
  sopt.offline_fraction = GetD(args, "offline", peak ? 0.0 : 0.32, &ok);
  sopt.rho = flags.config.rho;
  sopt.seed = seed + 2;
  if (!ok) return 2;  // every malformed flag already printed its error

  RoadNetwork network;
  if (!LoadCity(flags, &network)) return 1;
  Scenario scenario = MakeCliScenario(network, flags, sopt);

  auto system = MTShareSystem::Create(network, scenario.HistoricalOdPairs(),
                                      flags.config);
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
  spec.scheme = scheme;
  spec.requests = &scenario.requests;
  spec.num_taxis = flags.num_taxis;
  spec.fleet_seed = seed + 3;
  spec.num_threads = flags.num_threads;
  spec.batch_window_ms = flags.batch_window_ms;
  spec.max_queue = flags.max_queue;
  Result<Metrics> run = system.value()->RunScenario(spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 2;
  }
  Metrics m = std::move(run).value();

  std::printf("scheme=%s window=%s taxis=%d requests=%zu offline=%d\n",
              SchemeName(scheme), peak ? "peak" : "nonpeak", spec.num_taxis,
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
    ctx.scheme = SchemeName(scheme);
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
