#include "sched/route_planner.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace mtshare {
namespace {

constexpr double kPsiFloor = 1e-6;  // avoids division by zero in 1/psi

}  // namespace

RoutePlanner::RoutePlanner(const RoadNetwork& network,
                           const MapPartitioning& partitioning,
                           const LandmarkGraph& landmark_graph,
                           const TransitionModel* transitions,
                           DistanceOracle* oracle,
                           const RoutePlannerOptions& options)
    : network_(network),
      partitioning_(partitioning),
      landmarks_(landmark_graph),
      transitions_(transitions),
      oracle_(oracle),
      options_(options),
      filter_(network, partitioning, landmark_graph, options.lambda,
              options.epsilon),
      dijkstra_(network),
      mask_(network.num_vertices(), 0),
      vertex_weights_(network.num_vertices(), 0.0) {
  MTSHARE_CHECK(oracle != nullptr);
  const int32_t k = partitioning.num_partitions();
  if (transitions_ != nullptr) {
    MTSHARE_CHECK(transitions_->num_groups() == k);
    MTSHARE_CHECK(transitions_->num_vertices() == network.num_vertices());
    partition_transition_.assign(static_cast<size_t>(k) * k, 0.0);
    for (VertexId v = 0; v < network.num_vertices(); ++v) {
      PartitionId p = partitioning.PartitionOf(v);
      const double* row = transitions_->Row(v);
      for (int32_t q = 0; q < k; ++q) {
        partition_transition_[static_cast<size_t>(p) * k + q] += row[q];
      }
    }
  }
}

void RoutePlanner::ClearMask() {
  for (PartitionId p : mask_partitions_) {
    for (VertexId v : partitioning_.partition_vertices[p]) mask_[v] = 0;
  }
  mask_partitions_.clear();
}

Path RoutePlanner::PlanBasicLeg(VertexId from, VertexId to) {
  ++basic_legs_;
  if (from == to) return Path::Trivial(from);
  std::vector<PartitionId> kept = filter_.Filter(from, to);
  ClearMask();
  filter_.AddToMask(kept, &mask_);
  mask_partitions_ = kept;
  SearchOptions sopt;
  sopt.allowed_vertices = &mask_;
  Path path = dijkstra_.FindPath(from, to, sopt);
  if (!path.valid) {
    // Filtered subgraph disconnected the endpoints; retry unrestricted.
    path = dijkstra_.FindPath(from, to);
  }
  return path;
}

std::vector<int32_t> RoutePlanner::SuitableDestinations(
    PartitionId p, const Point& taxi_direction) const {
  std::vector<int32_t> dests;
  const Point& from = network_.coord(partitioning_.landmarks[p]);
  bool no_direction =
      taxi_direction.x == 0.0 && taxi_direction.y == 0.0;
  for (PartitionId q = 0; q < partitioning_.num_partitions(); ++q) {
    if (q == p) continue;
    if (!no_direction) {
      const Point& to = network_.coord(partitioning_.landmarks[q]);
      Point dir{to.x - from.x, to.y - from.y};
      if (DirectionCosine(dir, taxi_direction) < options_.lambda) continue;
    }
    dests.push_back(q);
  }
  return dests;
}

double RoutePlanner::PartitionEncounterMass(
    PartitionId p, const Point& taxi_direction) const {
  if (transitions_ == nullptr) return 0.0;
  const int32_t k = partitioning_.num_partitions();
  double mass = 0.0;
  for (int32_t q : SuitableDestinations(p, taxi_direction)) {
    mass += partition_transition_[static_cast<size_t>(p) * k + q];
  }
  return mass;
}

std::vector<std::vector<PartitionId>> RoutePlanner::EnumeratePartitionPaths(
    const std::vector<PartitionId>& kept, PartitionId pz, PartitionId pz1,
    const Point& taxi_direction) const {
  // Per-partition encounter mass (Algorithm 4 step 1).
  std::vector<double> mass(partitioning_.num_partitions(), 0.0);
  std::vector<uint8_t> in_kept(partitioning_.num_partitions(), 0);
  for (PartitionId p : kept) {
    in_kept[p] = 1;
    mass[p] = PartitionEncounterMass(p, taxi_direction);
  }

  // Hop distance of every kept partition to pz1 (BFS from pz1 over the
  // kept set; landmark adjacency is symmetric). A partial path that cannot
  // reach pz1 within max_path_hops even along a shortest continuation is
  // pruned below: such a subtree holds no path, so `found` and its order
  // are those of the unbounded walk, without its exponential dead ends.
  const int32_t kNoHops = std::numeric_limits<int32_t>::max();
  std::vector<int32_t> hops(partitioning_.num_partitions(), kNoHops);
  if (in_kept[pz1]) {
    std::vector<PartitionId> queue{pz1};
    hops[pz1] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      PartitionId p = queue[head];
      for (PartitionId q : landmarks_.Neighbors(p)) {
        if (!in_kept[q] || hops[q] != kNoHops) continue;
        hops[q] = hops[p] + 1;
        queue.push_back(q);
      }
    }
  }

  // Depth-first enumeration of simple paths, greedy-heavy-first so that
  // early truncation keeps the strongest candidates.
  struct PathAcc {
    std::vector<PartitionId> path;
    double weight;
  };
  std::vector<PathAcc> found;
  std::vector<PartitionId> current;
  std::vector<uint8_t> visited(partitioning_.num_partitions(), 0);

  struct Frame {
    PartitionId node;
    std::vector<PartitionId> neighbors;
    size_t next = 0;
  };
  auto sorted_neighbors = [&](PartitionId p) {
    std::vector<PartitionId> nbrs;
    for (PartitionId q : landmarks_.Neighbors(p)) {
      if (in_kept[q] && !visited[q]) nbrs.push_back(q);
    }
    std::sort(nbrs.begin(), nbrs.end(), [&](PartitionId a, PartitionId b) {
      return mass[a] > mass[b];
    });
    return nbrs;
  };

  std::vector<Frame> stack;
  current.push_back(pz);
  visited[pz] = 1;
  if (pz == pz1) {
    found.push_back({current, mass[pz]});
  } else {
    stack.push_back({pz, sorted_neighbors(pz), 0});
    while (!stack.empty() &&
           static_cast<int32_t>(found.size()) < options_.max_partition_paths) {
      Frame& frame = stack.back();
      if (frame.next >= frame.neighbors.size() ||
          static_cast<int32_t>(current.size()) > options_.max_path_hops) {
        visited[frame.node] = 0;
        current.pop_back();
        stack.pop_back();
        continue;
      }
      PartitionId next = frame.neighbors[frame.next++];
      if (visited[next]) continue;
      // Paths hold at most max_path_hops + 1 partitions.
      if (hops[next] == kNoHops ||
          static_cast<int64_t>(current.size()) + 1 + hops[next] >
              static_cast<int64_t>(options_.max_path_hops) + 1) {
        continue;
      }
      current.push_back(next);
      if (next == pz1) {
        double w = 0.0;
        for (PartitionId p : current) w += mass[p];
        found.push_back({current, w});
        current.pop_back();
      } else {
        visited[next] = 1;
        stack.push_back({next, sorted_neighbors(next), 0});
      }
    }
  }

  std::stable_sort(found.begin(), found.end(),
                   [](const PathAcc& a, const PathAcc& b) {
                     return a.weight > b.weight;
                   });
  std::vector<std::vector<PartitionId>> out;
  out.reserve(found.size());
  for (PathAcc& acc : found) out.push_back(std::move(acc.path));
  return out;
}

Path RoutePlanner::PlanProbabilisticLeg(VertexId from, VertexId to,
                                        const Point& taxi_direction,
                                        Seconds travel_budget) {
  ++prob_legs_;
  MTSHARE_CHECK(transitions_ != nullptr);
  if (from == to) return Path::Trivial(from);

  // Hopeless budgets fall back immediately (cheaper than a doomed search).
  if (oracle_->Cost(from, to) > travel_budget) {
    ++prob_fallbacks_;
    return Path::Invalid();
  }

  std::vector<PartitionId> kept = filter_.Filter(from, to);
  PartitionId pz = partitioning_.PartitionOf(from);
  PartitionId pz1 = partitioning_.PartitionOf(to);
  std::vector<std::vector<PartitionId>> partition_paths =
      EnumeratePartitionPaths(kept, pz, pz1, taxi_direction);

  int32_t attempts =
      std::min<int32_t>(options_.max_attempts,
                        static_cast<int32_t>(partition_paths.size()));
  for (int32_t attempt = 0; attempt < attempts; ++attempt) {
    const auto& path_partitions = partition_paths[attempt];
    ClearMask();
    filter_.AddToMask(path_partitions, &mask_);
    mask_partitions_ = path_partitions;
    // Fine-grained weights (Algorithm 4 step 3): 1/psi_c where psi_c is the
    // vertex's transition mass toward its partition's suitable destinations.
    for (PartitionId p : path_partitions) {
      std::vector<int32_t> dests = SuitableDestinations(p, taxi_direction);
      for (VertexId v : partitioning_.partition_vertices[p]) {
        double psi = transitions_->MassTowards(v, dests);
        vertex_weights_[v] = 1.0 / (psi + kPsiFloor);
      }
    }
    SearchOptions sopt;
    sopt.allowed_vertices = &mask_;
    sopt.vertex_weights = &vertex_weights_;
    sopt.max_travel = travel_budget;
    Path path = dijkstra_.FindPath(from, to, sopt);
    if (path.valid && path.cost <= travel_budget) return path;
  }
  ++prob_fallbacks_;
  return Path::Invalid();
}

RoutePlanner::PlannedRoute RoutePlanner::PlanRoute(VertexId start,
                                                   Seconds start_time,
                                                   const Schedule& schedule,
                                                   bool probabilistic,
                                                   const Point& taxi_direction) {
  PlannedRoute out;
  out.path = Path::Trivial(start);
  if (schedule.empty()) {
    out.valid = true;
    return out;
  }

  // Oracle (shortest-path) leg costs for budget computation: leg z connects
  // event z-1 (or start) to event z.
  const size_t m = schedule.size();
  std::vector<Seconds> oracle_leg(m, 0.0);
  {
    VertexId at = start;
    for (size_t z = 0; z < m; ++z) {
      oracle_leg[z] = oracle_->Cost(at, schedule.at(z).vertex);
      if (oracle_leg[z] == kInfiniteCost) return PlannedRoute{};
      at = schedule.at(z).vertex;
    }
  }

  VertexId at = start;
  Seconds t = start_time;
  for (size_t z = 0; z < m; ++z) {
    const ScheduleEvent& event = schedule.at(z);
    Path leg;
    if (probabilistic) {
      // Largest leg travel budget keeping every remaining deadline
      // reachable via shortest paths afterwards.
      Seconds budget = kInfiniteCost;
      Seconds future = 0.0;
      for (size_t k = z; k < m; ++k) {
        if (k > z) future += oracle_leg[k];
        budget = std::min(budget, schedule.at(k).deadline - t - future);
      }
      budget = std::min(budget, oracle_leg[z] * options_.prob_max_stretch +
                                    options_.prob_extra_slack);
      leg = PlanProbabilisticLeg(at, event.vertex, taxi_direction, budget);
      if (!leg.valid) leg = PlanBasicLeg(at, event.vertex);
    } else {
      leg = PlanBasicLeg(at, event.vertex);
    }
    if (!leg.valid) return PlannedRoute{};
    t += leg.cost;
    if (t > event.deadline + 1e-9) return PlannedRoute{};
    out.path = ConcatPaths(out.path, leg);
    out.event_arrivals.push_back(t);
    at = event.vertex;
  }
  out.valid = true;
  return out;
}

}  // namespace mtshare
