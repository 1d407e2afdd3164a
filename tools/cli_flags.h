// Flag parsing and system setup shared by the mtshare_sim and mtshare_serve
// command-line tools. Each tool keeps its own flag list, usage text and
// exit codes; this module only removes the copies of what they share.
#ifndef MTSHARE_TOOLS_CLI_FLAGS_H_
#define MTSHARE_TOOLS_CLI_FLAGS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "core/mtshare_system.h"
#include "demand/request_generator.h"
#include "graph/graph_generators.h"
#include "graph/road_network.h"

namespace mtshare::cli {

using FlagMap = std::map<std::string, std::string>;

/// Parses --key=value flags (a bare --key reads as "1"). Positional
/// arguments and keys missing from `known` are errors: each is reported on
/// stderr with the offending argument and clears *ok.
FlagMap ParseArgs(int argc, char** argv, std::span<const char* const> known,
                  bool* ok);

/// Strict numeric flag lookup: malformed values ("abc", "12x", "") are a
/// hard error instead of silently becoming 0 via atoi-style parsing.
double GetD(const FlagMap& args, const std::string& key, double fallback,
            bool* ok);

/// Strict non-negative integer flag (counts: taxis, requests, threads...).
int32_t GetCount(const FlagMap& args, const std::string& key,
                 int32_t fallback, bool* ok);

std::string GetS(const FlagMap& args, const std::string& key,
                 const std::string& fallback);

/// The flags both tools read: scheme, demand window, city, system
/// configuration, fleet and ingest discipline.
struct SystemFlags {
  SchemeKind scheme = SchemeKind::kMtShare;
  /// --window: peak (workday) or nonpeak (weekend) demand.
  bool peak = true;
  uint64_t seed = 42;
  /// --network edge list; empty = generate `grid`.
  std::string network_file;
  GridCityOptions grid;
  SystemConfig config;
  int32_t num_taxis = 150;
  int32_t num_threads = 1;
  double batch_window_ms = 0.0;
  int32_t max_queue = 0;
};

/// Reads the shared flags into `out`. Malformed values print their error
/// and clear *ok, and reading goes on so every bad flag is reported.
/// Returns false, after printing why, when the caller must exit 2 at once:
/// an unknown --scheme or --oracle, or (with every value well-formed) a
/// configuration SystemConfig::Validate rejects.
bool ReadSystemFlags(const FlagMap& args, SystemFlags* out, bool* ok);

/// The city: the largest strongly connected component of --network when
/// given, else the generated grid. Returns false, after printing why, when
/// the network file cannot be loaded.
bool LoadCity(const SystemFlags& flags, RoadNetwork* out);

/// Generates a scenario on `network` from the demand model of the --window
/// day type (seeded --seed + 1). Trip costs come from a scratch oracle, the
/// exact table or an LRU cache above its size limit: scenario generation
/// issues scattered point queries, which do not pay for CH preprocessing,
/// and every backend returns identical costs.
Scenario MakeCliScenario(const RoadNetwork& network, const SystemFlags& flags,
                         const ScenarioOptions& options);

}  // namespace mtshare::cli

#endif  // MTSHARE_TOOLS_CLI_FLAGS_H_
