// replay — closed-loop replay of one named workload through the public
// mT-Share API, for the repository benchmark (see README.md beside this
// file; run.py is the entry point that builds and calls it).
//
//   replay --workload=paper-peak --seed=1 --seconds=30 --trace=0
//          [--size=full|smoke] [--trace-out=<chrome trace json>]
//
// Inputs are generated once from the seed with a scratch DistanceOracle,
// which is freed before anything is measured: a city and, for each of the
// workload's days, historical trips and a request stream. A round replays
// every day, each in a fresh child process: MTShareSystem::Create (the
// set-up time) followed by one RunScenario with the program's defaults, so
// every day is a cold service start and the child's peak RSS is the day's
// own. One caller submits the next request only after the previous
// decision: a closed loop with one client. Rounds repeat while the next one
// should end within --seconds.
//
// With --trace=1, untraced and traced rounds alternate. A traced day also
// calls each public set-up builder in turn under its own span and records
// one span per decision; the sub-layer split of dispatch comes from the
// run's Metrics. Every replay of a day, traced or not, must give the same
// decision digest.
//
// Prints one JSON object on stdout; exits non-zero on any failed check.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/string_util.h"
#include "core/mtshare_system.h"
#include "demand/demand_model.h"
#include "demand/request_generator.h"
#include "graph/graph_generators.h"
#include "mobility/transition_model.h"
#include "partition/bipartite_partitioner.h"
#include "partition/landmark_graph.h"
#include "routing/distance_oracle.h"

#ifndef REPLAY_BUILD_TYPE
#define REPLAY_BUILD_TYPE "unknown"
#endif
#ifndef REPLAY_COMPILER
#define REPLAY_COMPILER "unknown"
#endif

namespace {

using namespace mtshare;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  GridCityOptions city;
  bool peak;  // workday from 8:00, else weekend from 10:00
  double window_hours;
  int32_t requests;
  double offline_fraction;
  int32_t taxis;
  int32_t historical_trips;
  SchemeKind scheme;
  // Independent days replayed per round. One day's figures swing with its
  // draw of requests (heavy-tailed per-request cost, chaotic fleet state);
  // pooling several days keeps a run's figures steady from seed to seed.
  int32_t days;
};

// The 48x48 bench city of bench/bench_common.cc (MakeBenchCity).
GridCityOptions BenchCity() {
  GridCityOptions c;
  c.rows = 48;
  c.cols = 48;
  c.spacing_m = 150.0;
  c.jitter_m = 25.0;
  c.seed = 20200961;
  return c;
}

// A larger grid with the same block size. From 66x66 up (about 4.3k
// vertices after the largest-SCC cut) the city is above
// OracleOptions::max_exact_vertices, so the default backend resolves to the
// contraction hierarchy.
GridCityOptions ChCity(int32_t side) {
  GridCityOptions c = BenchCity();
  c.rows = side;
  c.cols = side;
  return c;
}

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  // Paper nonpeak offline share: 5000 of 15480 requests are street hails.
  const double kNonpeakOffline = 5000.0 / 15480.0;
  std::vector<Workload> all;
  if (!smoke) {
    all = {
        {"paper-peak", BenchCity(), true, 1.0, 2400, 0.0, 300, 30000,
         SchemeKind::kMtShare, 8},
        {"paper-nonpeak-pro", BenchCity(), false, 2.0, 2600, kNonpeakOffline,
         300, 30000, SchemeKind::kMtSharePro, 8},
        {"city-ch", ChCity(72), true, 1.0, 1200, 0.0, 400, 30000,
         SchemeKind::kMtShare, 4},
    };
  } else {
    GridCityOptions tiny = BenchCity();
    tiny.rows = 14;
    tiny.cols = 14;
    all = {
        {"paper-peak", tiny, true, 1.0, 120, 0.0, 25, 2000,
         SchemeKind::kMtShare, 2},
        {"paper-nonpeak-pro", tiny, false, 2.0, 150, kNonpeakOffline, 25, 2000,
         SchemeKind::kMtSharePro, 2},
        {"city-ch", ChCity(66), true, 1.0, 60, 0.0, 30, 2000,
         SchemeKind::kMtShare, 2},
    };
  }
  for (const Workload& w : all) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

// BenchEnv's default demand seed (bench/bench_common.h).
constexpr uint64_t kDemandSeed = 77;

// One replayed day: the system trains on its historical trips, then serves
// its requests with a fleet placed by fleet_seed.
struct Day {
  std::vector<RideRequest> requests;
  std::vector<OdPair> historical;
  int32_t online = 0;
  uint64_t fleet_seed = 0;
};

struct Inputs {
  RoadNetwork network;
  std::vector<Day> days;
};

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

static_assert(std::is_trivially_copyable_v<RideRequest>);

// Draws every day's historical trips and requests with a scratch oracle and
// writes them to `fd`: per day, the request count, the requests, the trip
// count and the trips as (origin, destination) pairs.
bool WriteDays(const Workload& w, const RoadNetwork& network, uint64_t seed,
               int fd) {
  // The demand model (hotspot layout) belongs to the city and stays fixed;
  // the seed draws each day's trips and requests from it.
  DemandModelOptions dopt;
  dopt.day = w.peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = kDemandSeed;
  DemandModel demand(network, dopt);
  OracleOptions scratch;
  if (network.num_vertices() > scratch.max_exact_vertices) {
    scratch.backend = OracleBackend::kLru;
  }
  DistanceOracle oracle(network, scratch);
  for (int32_t d = 0; d < w.days; ++d) {
    ScenarioOptions sopt;
    sopt.t_begin = (w.peak ? 8 : 10) * 3600.0;
    sopt.t_end = sopt.t_begin + w.window_hours * 3600.0;
    sopt.num_requests = w.requests;
    sopt.offline_fraction = w.offline_fraction;
    sopt.rho = SystemConfig{}.rho;
    sopt.num_historical_trips = w.historical_trips;
    sopt.seed = seed * 64 + static_cast<uint64_t>(d) * 2 + 1;
    const Scenario scenario = MakeScenario(network, demand, oracle, sopt);
    std::vector<int32_t> trips;
    for (const OdPair& od : scenario.HistoricalOdPairs()) {
      trips.push_back(od.first);
      trips.push_back(od.second);
    }
    const uint64_t counts[2] = {scenario.requests.size(), trips.size() / 2};
    if (!WriteAll(fd, &counts[0], sizeof(counts[0])) ||
        !WriteAll(fd, scenario.requests.data(),
                  scenario.requests.size() * sizeof(RideRequest)) ||
        !WriteAll(fd, &counts[1], sizeof(counts[1])) ||
        !WriteAll(fd, trips.data(), trips.size() * sizeof(int32_t))) {
      return false;
    }
  }
  return true;
}

// Generates every input from the seed. The scratch oracle lives in a
// separate process, as tools/mtshare_sim.cc keeps it apart from the
// system: the system under test never sees it and starts cold, and the
// heap the measured children inherit is the same whatever the seed drew.
bool Generate(const Workload& w, uint64_t seed, Inputs* in) {
  in->network = MakeGridCity(w.city);
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const bool ok = WriteDays(w, in->network, seed, fds[1]);
    _exit(ok && close(fds[1]) == 0 ? 0 : 3);
  }
  close(fds[1]);
  bool ok = true;
  for (int32_t d = 0; d < w.days && ok; ++d) {
    Day day;
    uint64_t count = 0;
    ok = ReadAll(fds[0], &count, sizeof(count));
    day.requests.resize(ok ? count : 0);
    ok = ok && ReadAll(fds[0], day.requests.data(),
                       day.requests.size() * sizeof(RideRequest));
    ok = ok && ReadAll(fds[0], &count, sizeof(count));
    std::vector<int32_t> trips(ok ? 2 * count : 0);
    ok = ok && ReadAll(fds[0], trips.data(), trips.size() * sizeof(int32_t));
    day.historical.reserve(trips.size() / 2);
    for (size_t i = 0; i + 1 < trips.size(); i += 2) {
      day.historical.emplace_back(trips[i], trips[i + 1]);
    }
    for (const RideRequest& r : day.requests) day.online += r.offline ? 0 : 1;
    day.fleet_seed = seed * 64 + static_cast<uint64_t>(d) * 2 + 2;
    in->days.push_back(std::move(day));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------------------------
// One replayed day (runs in a child process)

struct Span {
  std::string name;
  double start_us;
  double dur_us;
  std::string parent;
  int64_t request = -1;
};

// FNV-1a over the decision fields of every record, in id order.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

struct DayResult {
  std::map<std::string, double> values;
  std::vector<double> latencies_ms;  // one per online request
  uint64_t digest = 0;
  std::string error;
};

// Output check: every record belongs to its request, every served request
// was picked up at or after its release and dropped off by its deadline,
// every online request got exactly one decision, and served plus unserved
// equals the total. Returns the first violation, or empty.
std::string CheckOutputs(const std::vector<RideRequest>& requests,
                         const Metrics& m, int32_t num_taxis,
                         int64_t online_decisions, int32_t online) {
  const std::vector<RequestRecord>& records = m.records();
  if (records.size() != requests.size()) {
    return "record count " + std::to_string(records.size()) +
           " != request count " + std::to_string(requests.size());
  }
  if (online_decisions != online) {
    return "observed " + std::to_string(online_decisions) +
           " online decisions for " + std::to_string(online) +
           " online requests";
  }
  int64_t served = 0;
  int64_t unserved = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& rec = records[i];
    const RideRequest& req = requests[i];
    const std::string who = "request " + std::to_string(i) + ": ";
    if (rec.id != req.id || rec.offline != req.offline) {
      return who + "record does not match its request";
    }
    if (rec.assigned != rec.completed) {
      return who + "assigned and completed disagree";
    }
    if (!rec.completed) {
      ++unserved;
      continue;
    }
    ++served;
    if (rec.taxi < 0 || rec.taxi >= num_taxis) return who + "bad taxi id";
    if (!(rec.pickup_time >= req.release_time)) {
      return who + "picked up before its release";
    }
    if (!(rec.dropoff_time >= rec.pickup_time)) {
      return who + "dropped off before its pickup";
    }
    if (!(rec.dropoff_time <= req.deadline)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "dropped off at %.6f after its deadline %.6f",
                    rec.dropoff_time, req.deadline);
      return who + buf;
    }
  }
  if (served != m.ServedRequests() ||
      served + unserved != static_cast<int64_t>(requests.size())) {
    return "served + unserved != total";
  }
  return "";
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"",
                 s.name.c_str(), s.start_us, s.dur_us, s.parent.c_str());
    if (s.request >= 0) {
      std::fprintf(f, ",\"request\":%" PRId64, s.request);
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

DayResult RunDay(const Workload& w, const RoadNetwork& network,
                       const Day& day, bool traced,
                       const std::string& trace_out) {
  DayResult out;
  const SystemConfig config;  // the program's defaults, untouched
  std::vector<Span> spans;
  const Clock::time_point origin = Clock::now();
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  auto span = [&](const char* name, const char* parent, auto&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    const Clock::time_point t1 = Clock::now();
    spans.push_back({name, us(t0), us(t1) - us(t0), parent});
    return std::chrono::duration<double>(t1 - t0).count();
  };

  if (traced) {
    // Each public set-up builder in turn, with the options the system
    // passes them (MTShareSystem's constructor).
    BipartiteOptions bopt;
    bopt.kappa = config.kappa;
    bopt.kt = config.kt;
    bopt.seed = config.seed;
    MapPartitioning partitioning;
    std::unique_ptr<LandmarkGraph> landmarks;
    TransitionModel transitions;
    std::unique_ptr<DistanceOracle> oracle;
    out.values["partition.bipartite_s"] = span("BipartitePartition", "", [&] {
      partitioning = BipartitePartition(network, day.historical, bopt);
    });
    out.values["partition.landmarks_s"] = span("LandmarkGraph", "", [&] {
      landmarks = std::make_unique<LandmarkGraph>(network, partitioning);
    });
    out.values["mobility.transitions_s"] =
        span("TransitionModel::Build", "", [&] {
          transitions = TransitionModel::Build(
              network.num_vertices(), partitioning.num_partitions(),
              partitioning.vertex_partition, day.historical);
        });
    out.values["routing.oracle_build_s"] = span("DistanceOracle", "", [&] {
      oracle = std::make_unique<DistanceOracle>(network, config.oracle);
    });
    out.values["routing.ch_shortcuts"] =
        static_cast<double>(oracle->ch_build_stats().shortcuts_added);
  }

  std::unique_ptr<MTShareSystem> system;
  std::string create_error;
  const double setup_s = span("MTShareSystem::Create", "", [&] {
    auto created = MTShareSystem::Create(network, day.historical, config);
    if (created.ok()) {
      system = std::move(created).value();
    } else {
      create_error = created.status().ToString();
    }
  });
  if (system == nullptr) {
    out.error = "Create: " + create_error;
    return out;
  }

  ScenarioSpec spec;
  spec.scheme = w.scheme;
  spec.requests = &day.requests;
  spec.num_taxis = w.taxis;
  spec.fleet_seed = day.fleet_seed;
  out.latencies_ms.reserve(day.online);
  Clock::time_point last_online{};
  Clock::time_point last_any{};
  int64_t online_decisions = 0;
  double max_gap_ms = 0.0;  // longest wait between two decisions
  spec.on_decision = [&](const RideRequest& r, const RequestRecord&) {
    const Clock::time_point now = Clock::now();
    if (traced) {
      spans.push_back({r.offline ? "decision.offline" : "decision.online",
                       us(last_any), us(now) - us(last_any), "RunScenario",
                       r.id});
    }
    max_gap_ms = std::max(
        max_gap_ms,
        std::chrono::duration<double, std::milli>(now - last_any).count());
    last_any = now;
    if (r.offline) return;
    out.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last_online).count());
    last_online = now;
    ++online_decisions;
  };

  const Clock::time_point run_start = Clock::now();
  last_online = last_any = run_start;
  Result<Metrics> run = system->RunScenario(spec);
  const double run_s = SecondsSince(run_start);
  spans.push_back({"RunScenario", us(run_start), run_s * 1e6, ""});
  if (!run.ok()) {
    out.error = "RunScenario: " + run.status().ToString();
    return out;
  }
  const Metrics& m = run.value();

  out.error =
      CheckOutputs(day.requests, m, w.taxis, online_decisions, day.online);
  Digest digest;
  for (const RequestRecord& rec : m.records()) {
    digest.Add(rec.assigned);
    digest.Add(rec.taxi);
    digest.Add(rec.pickup_time);
    digest.Add(rec.dropoff_time);
    digest.Add(rec.regular_fare);
    digest.Add(rec.shared_fare);
  }
  out.digest = digest.value();

  auto& v = out.values;
  v["setup_s"] = setup_s;
  v["run_s"] = run_s;
  v["served"] = m.ServedRequests();
  v["detour_min_mean"] = m.MeanDetourMinutes();
  v["waiting_min_mean"] = m.MeanWaitingMinutes();
  if (!traced) return out;

  const double ms = 1e3;
  const auto& phase = m.phases.seconds;
  auto at = [&](DispatchPhase p) { return phase[static_cast<size_t>(p)] * ms; };
  const double dispatch_all_ms = m.TotalDispatchMs();  // incl. offline probes
  v["matching.candidate_search_ms"] = at(DispatchPhase::kCandidateSearch);
  v["matching.filter_ms"] = at(DispatchPhase::kFilter);
  v["sched.insertion_ms"] = at(DispatchPhase::kInsertion);
  v["sched.routing_ms"] = at(DispatchPhase::kRouting);
  // Offline probes as a share of dispatch, not a time: workloads without
  // street hails have none, and a time reading 0 on every run would look
  // unmeasured.
  v["matching.offline_probe_share"] =
      dispatch_all_ms > 0 ? m.offline_probe_ms / dispatch_all_ms : 0.0;
  v["sim.dispatch_ms"] = dispatch_all_ms - m.offline_probe_ms;
  v["sim.engine_advance_ms"] = run_s * ms - dispatch_all_ms;
  v["trace.dispatch_residual_ms"] =
      dispatch_all_ms - m.phases.total_seconds() * ms;
  v["trace.setup_s"] = setup_s;
  v["trace.setup_residual_s"] =
      setup_s - (v["partition.bipartite_s"] + v["partition.landmarks_s"] +
                 v["mobility.transitions_s"] + v["routing.oracle_build_s"]);
  v["trace.run_s"] = run_s;
  v["sim.decision_gap_ms_max"] = max_gap_ms;
  v["matching.candidates_mean"] = m.MeanCandidates();
  double candidates = 0.0;
  for (const RequestRecord& rec : m.records()) candidates += rec.candidates;
  const BatchRoutingStats& rt = m.routing;
  // Taxis the landmark bound removed, out of those it removed plus the
  // ones that reached insertion as candidates.
  const double lb_tested = static_cast<double>(rt.lb_pruned) + candidates;
  v["matching.lb_pruned_ratio"] =
      lb_tested > 0 ? static_cast<double>(rt.lb_pruned) / lb_tested : 0.0;
  v["routing.ellipse_pruned_ratio"] =
      rt.slots_screened > 0
          ? static_cast<double>(rt.ellipse_pruned) / rt.slots_screened
          : 0.0;
  v["routing.ch_point_queries"] = static_cast<double>(rt.ch_point_queries);
  v["routing.ch_bucket_entries"] = static_cast<double>(rt.ch_bucket_entries);
  v["routing.ch_upward_settled"] = static_cast<double>(rt.ch_upward_settled);
  v["routing.batch_queries"] = static_cast<double>(rt.batch_queries);
  v["routing.bucket_candidates"] = static_cast<double>(rt.bucket_candidates);
  v["routing.oracle_queries"] = static_cast<double>(m.oracle_queries);
  v["routing.oracle_row_misses"] = static_cast<double>(m.oracle_row_misses);
  v["sim.arcs_stepped"] = static_cast<double>(m.engine.arcs_stepped);
  v["sim.heap_pops"] = static_cast<double>(m.engine.heap_pops);
  v["sim.decision_spans"] = static_cast<double>(
      std::count_if(spans.begin(), spans.end(), [](const Span& s) {
        return s.name.rfind("decision.", 0) == 0;
      }));
  if (!trace_out.empty()) WriteTrace(trace_out, spans);
  return out;
}

// ---------------------------------------------------------------------------
// Child process plumbing: the child writes its result as text lines to a
// pipe ("v <key> <value>", "l <latency>", "d <digest>", "e <error>").

void WriteResult(FILE* f, const DayResult& r) {
  for (const auto& [key, value] : r.values) {
    std::fprintf(f, "v %s %.17g\n", key.c_str(), value);
  }
  for (double l : r.latencies_ms) std::fprintf(f, "l %.17g\n", l);
  std::fprintf(f, "d %016" PRIx64 "\n", r.digest);
  if (!r.error.empty()) std::fprintf(f, "e %s\n", r.error.c_str());
}

bool ParseResult(const std::string& text, DayResult* r) {
  bool have_digest = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() < 2) continue;
    const std::string rest = line.substr(2);
    if (line[0] == 'v') {
      const size_t sp = rest.find(' ');
      if (sp == std::string::npos) return false;
      r->values[rest.substr(0, sp)] =
          std::strtod(rest.c_str() + sp + 1, nullptr);
    } else if (line[0] == 'l') {
      r->latencies_ms.push_back(std::strtod(rest.c_str(), nullptr));
    } else if (line[0] == 'd') {
      r->digest = std::strtoull(rest.c_str(), nullptr, 16);
      have_digest = true;
    } else if (line[0] == 'e') {
      r->error = rest;
    }
  }
  return have_digest;
}

// Runs one day in a child process and waits for it. `max_rss_mb`
// receives the child's peak resident set.
DayResult RunInChild(const Workload& w, const RoadNetwork& network,
                           const Day& day, bool traced,
                           const std::string& trace_out, double* max_rss_mb) {
  DayResult result;
  int fds[2];
  if (pipe(fds) != 0) {
    result.error = std::string("pipe: ") + std::strerror(errno);
    return result;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    result.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    FILE* f = fdopen(fds[1], "w");
    if (f == nullptr) _exit(3);
    WriteResult(f, RunDay(w, network, day, traced, trace_out));
    _exit(std::fclose(f) == 0 ? 0 : 3);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  *max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.error = "day process failed (status " +
                   std::to_string(status) + ")";
    return result;
  }
  if (!ParseResult(text, &result)) {
    result.error = "day process sent no result";
  }
  return result;
}

// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "replay: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "replay: expected --key=value, got '%s'\n",
                   arg.c_str());
      return 2;
    }
    args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  auto get = [&](const char* key, const char* fallback) {
    auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };
  uint64_t seed = 0;
  double seconds = 0.0;
  const std::string size = get("size", "full");
  const std::string trace = get("trace", "0");
  if (!ParseUint64(get("seed", "1"), &seed) ||
      !ParseDouble(get("seconds", "10"), &seconds) || !(seconds > 0.0) ||
      (trace != "0" && trace != "1") || (size != "full" && size != "smoke")) {
    std::fprintf(stderr, "replay: bad --seed/--seconds/--trace/--size\n");
    return 2;
  }
  const std::optional<Workload> workload =
      FindWorkload(get("workload", ""), size == "smoke");
  if (!workload.has_value()) {
    std::fprintf(stderr, "replay: unknown --workload '%s'\n",
                 get("workload", "").c_str());
    return 2;
  }
  const Workload& w = *workload;
  const bool traced = trace == "1";
  const std::string trace_out = get("trace-out", "");

  const Clock::time_point gen_start = Clock::now();
  Inputs in;
  if (!Generate(w, seed, &in)) return Fail("input generation failed");
  const double generate_s = SecondsSince(gen_start);
  for (const Day& day : in.days) {
    if (day.online == 0) return Fail("a day has no online requests");
  }

  // A round replays every day once, each in its own child process.
  // Untraced runs measure every round; traced runs alternate untraced
  // rounds (the overhead baseline) and traced ones, at least one of each,
  // over the first half of the days so that the pair stays short.
  // Another round starts only if it should end within --seconds.
  std::vector<const Day*> days;
  for (const Day& day : in.days) days.push_back(&day);
  if (traced) days.resize((days.size() + 1) / 2);
  struct Round {
    bool traced = false;
    double seconds = 0.0;  // wall time of the round, set-up included
    double run_s = 0.0;    // summed RunScenario wall time
    std::vector<DayResult> days;
  };
  std::vector<Round> rounds;
  std::vector<double> rss_mb;
  const Clock::time_point measure_start = Clock::now();
  for (;;) {
    Round round;
    round.traced = traced && rounds.size() % 2 == 1;
    const Clock::time_point round_start = Clock::now();
    for (const Day* day : days) {
      const bool first_traced =
          round.traced && rounds.size() == 1 && round.days.empty();
      double rss = 0.0;
      DayResult r = RunInChild(w, in.network, *day, round.traced,
                               first_traced ? trace_out : "", &rss);
      if (!r.error.empty()) return Fail(r.error);
      if (!round.traced) rss_mb.push_back(rss);
      round.run_s += r.values.at("run_s");
      round.days.push_back(std::move(r));
    }
    round.seconds = SecondsSince(round_start);
    rounds.push_back(std::move(round));
    const bool enough = !traced || rounds.size() >= 2;
    const double next_end =
        SecondsSince(measure_start) + rounds.back().seconds;
    if (enough && next_end > seconds) break;
  }
  const double measured_s = SecondsSince(measure_start);

  // The contract: decisions are bit-identical per (workload, seed), traced
  // or not.
  for (const Round& round : rounds) {
    for (size_t d = 0; d < round.days.size(); ++d) {
      if (round.days[d].digest != rounds.front().days[d].digest) {
        return Fail("decision digest of day " + std::to_string(d) +
                    " differs between rounds");
      }
    }
  }

  std::vector<double> setup_s, day_run_s, round_s, run_s, traced_run_s;
  std::vector<double> latencies;
  std::vector<double> throughput;  // per day
  std::map<std::string, std::vector<double>> layers;
  for (const Round& round : rounds) {
    (round.traced ? traced_run_s : run_s).push_back(round.run_s);
    if (round.traced) {
      for (const DayResult& r : round.days) {
        for (const auto& [key, value] : r.values) {
          if (key.find('.') != std::string::npos) layers[key].push_back(value);
        }
      }
      continue;
    }
    round_s.push_back(round.seconds);
    for (size_t d = 0; d < round.days.size(); ++d) {
      const DayResult& r = round.days[d];
      setup_s.push_back(r.values.at("setup_s"));
      day_run_s.push_back(r.values.at("run_s"));
      throughput.push_back(days[d]->online / r.values.at("run_s"));
      latencies.insert(latencies.end(), r.latencies_ms.begin(),
                       r.latencies_ms.end());
    }
  }
  // Service quality is deterministic per seed: take it from the first
  // round, pooled over its days.
  double requests = 0.0, served = 0.0, detour = 0.0, waiting = 0.0;
  for (size_t d = 0; d < days.size(); ++d) {
    const DayResult& r = rounds.front().days[d];
    requests += static_cast<double>(days[d]->requests.size());
    const double n = r.values.at("served");
    served += n;
    detour += n * r.values.at("detour_min_mean");
    waiting += n * r.values.at("waiting_min_mean");
  }
  std::map<std::string, double> metrics;
  metrics["setup_s"] = Median(setup_s);
  metrics["throughput_rps"] = Median(throughput);
  metrics["request_ms_p50"] = Percentile(latencies, 0.50);
  metrics["request_ms_p99"] = Percentile(latencies, 0.99);
  metrics["served_ratio"] = served / requests;
  metrics["detour_min_mean"] = served > 0 ? detour / served : 0.0;
  metrics["waiting_min_mean"] = served > 0 ? waiting / served : 0.0;
  // Peak RSS is deterministic per day but differs between days (the
  // insertion batch's dense matrix grows with the largest candidate batch),
  // so average it over the days rather than pick one.
  metrics["peak_rss_mb"] = Mean(rss_mb);
  // Per-layer figures are per replayed day, averaged over the traced days;
  // the *_max ones take the maximum instead.
  for (const auto& [key, values] : layers) {
    const bool is_max = key.size() > 4 && key.ends_with("_max");
    metrics[key] =
        is_max ? *std::max_element(values.begin(), values.end()) : Mean(values);
  }
  if (traced) {
    metrics["trace.overhead_ratio"] = Median(traced_run_s) / Median(run_s);
  }

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonNumber(v[i]);
    }
    return out + "]";
  };
  int64_t online = 0;
  std::string day_digests = "[";
  for (size_t d = 0; d < days.size(); ++d) {
    online += days[d]->online;
    char hex[20];
    std::snprintf(hex, sizeof(hex), "\"%016" PRIx64 "\"",
                  rounds.front().days[d].digest);
    if (d > 0) day_digests += ',';
    day_digests += hex;
  }
  day_digests += "]";
  std::string json =
      "{\"workload\":" + JsonString(w.name) + ",\"size\":" + JsonString(size) +
      ",\"seed\":" + std::to_string(seed) +
      ",\"scheme\":" + JsonString(SchemeName(w.scheme)) +
      ",\"vertices\":" + std::to_string(in.network.num_vertices()) +
      ",\"taxis\":" + std::to_string(w.taxis) +
      ",\"days\":" + std::to_string(days.size()) +
      ",\"requests_per_round\":" + JsonNumber(requests) +
      ",\"online_per_round\":" + std::to_string(online) +
      ",\"day_digests\":" + day_digests +
      ",\"rounds\":" + std::to_string(run_s.size()) +
      ",\"traced_rounds\":" + std::to_string(traced_run_s.size()) +
      ",\"latency_samples\":" + std::to_string(latencies.size()) +
      ",\"setup_samples\":" + std::to_string(setup_s.size()) +
      ",\"attempted\":" +
      std::to_string(online * static_cast<int64_t>(rounds.size())) +
      ",\"generate_s\":" + JsonNumber(generate_s) +
      ",\"measured_s\":" + JsonNumber(measured_s) +
      ",\"round_s\":" + list(round_s) + ",\"round_run_s\":" + list(run_s) +
      ",\"setup_s_all\":" + list(setup_s) +
      ",\"day_run_s_all\":" + list(day_run_s) +
      ",\"rss_mb_all\":" + list(rss_mb) +
      ",\"build_type\":" + JsonString(REPLAY_BUILD_TYPE) +
      ",\"compiler\":" + JsonString(REPLAY_COMPILER) + ",\"metrics\":{";
  bool comma = false;
  for (const auto& [key, value] : metrics) {
    if (comma) json += ',';
    json += JsonString(key) + ":" + JsonNumber(value);
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
