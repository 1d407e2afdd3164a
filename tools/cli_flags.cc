#include "cli_flags.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "demand/demand_model.h"
#include "graph/graph_io.h"
#include "routing/distance_oracle.h"

namespace mtshare::cli {
namespace {

/// Strict unsigned 64-bit flag (RNG seeds). A double-based parse would
/// silently round seeds above 2^53 and make negative inputs UB on the
/// cast; ParseUint64 keeps full precision up to UINT64_MAX and rejects
/// signs and garbage outright.
uint64_t GetU64(const FlagMap& args, const std::string& key,
                uint64_t fallback, bool* ok) {
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

FlagMap ParseArgs(int argc, char** argv, std::span<const char* const> known,
                  bool* ok) {
  FlagMap args;
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
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      *ok = false;
      continue;
    }
    args[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return args;
}

double GetD(const FlagMap& args, const std::string& key, double fallback,
            bool* ok) {
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

int32_t GetCount(const FlagMap& args, const std::string& key,
                 int32_t fallback, bool* ok) {
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

std::string GetS(const FlagMap& args, const std::string& key,
                 const std::string& fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

bool ReadSystemFlags(const FlagMap& args, SystemFlags* out, bool* ok) {
  std::optional<SchemeKind> scheme =
      ParseScheme(GetS(args, "scheme", "mt-share"));
  if (!scheme.has_value()) {
    std::fprintf(stderr, "unknown --scheme\n");
    return false;
  }
  out->scheme = *scheme;
  out->peak = GetS(args, "window", "peak") == "peak";
  out->seed = GetU64(args, "seed", 42, ok);

  out->network_file = GetS(args, "network", "");
  out->grid.rows = GetCount(args, "rows", 48, ok);
  out->grid.cols = GetCount(args, "cols", 48, ok);
  out->grid.seed = out->seed;

  SystemConfig& config = out->config;
  config.kappa = GetCount(args, "kappa", 120, ok);
  config.kt = std::min<int32_t>(config.kappa, 20);
  config.rho = GetD(args, "rho", 1.3, ok);
  config.taxi_capacity = GetCount(args, "capacity", 3, ok);
  config.matching.gamma_max_m = GetD(args, "gamma", 2500.0, ok);
  if (!ParseOracleBackend(GetS(args, "oracle", "auto"),
                          &config.oracle.backend)) {
    std::fprintf(stderr, "unknown --oracle (want auto|exact|lru|ch)\n");
    return false;
  }
  config.seed = out->seed;

  out->num_taxis = GetCount(args, "taxis", 150, ok);
  out->num_threads = GetCount(args, "threads", 1, ok);
  out->batch_window_ms = GetD(args, "batch-window-ms", 0.0, ok);
  if (*ok && out->batch_window_ms < 0.0) {
    std::fprintf(stderr, "--batch-window-ms must be >= 0\n");
    *ok = false;
  }
  out->max_queue = GetCount(args, "max-queue", 0, ok);
  if (!*ok) return true;  // the caller exits once its own flags are read

  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", valid.ToString().c_str());
    return false;
  }
  return true;
}

bool LoadCity(const SystemFlags& flags, RoadNetwork* out) {
  if (flags.network_file.empty()) {
    *out = MakeGridCity(flags.grid);
    return true;
  }
  Result<RoadNetwork> loaded = LoadEdgeList(flags.network_file);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load network: %s\n",
                 loaded.status().ToString().c_str());
    return false;
  }
  *out = ExtractLargestScc(loaded.value());
  return true;
}

Scenario MakeCliScenario(const RoadNetwork& network, const SystemFlags& flags,
                         const ScenarioOptions& options) {
  DemandModelOptions dopt;
  dopt.day = flags.peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = flags.seed + 1;
  DemandModel demand(network, dopt);
  DistanceOracle oracle(network);
  return MakeScenario(network, demand, oracle, options);
}

}  // namespace mtshare::cli
