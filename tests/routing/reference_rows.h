#ifndef MTSHARE_TESTS_ROUTING_REFERENCE_ROWS_H_
#define MTSHARE_TESTS_ROUTING_REFERENCE_ROWS_H_

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "graph/road_network.h"

namespace mtshare::testing {

/// Reference one-to-all row by plain Dijkstra over the road network: the
/// program computes rows by PHAST sweeps over a contraction hierarchy, and
/// the tests compare them (and everything built on them) against this.
/// `reverse` walks InArcs, giving costs from every vertex *to* `root`.
inline std::vector<Seconds> ReferenceRow(const RoadNetwork& net,
                                         VertexId root,
                                         bool reverse = false) {
  using Entry = std::pair<Seconds, VertexId>;
  std::vector<Seconds> dist(net.num_vertices(), kInfiniteCost);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  dist[root] = 0.0;
  queue.push({0.0, root});
  while (!queue.empty()) {
    const auto [cost, v] = queue.top();
    queue.pop();
    if (cost > dist[v]) continue;
    for (const Arc& arc : reverse ? net.InArcs(v) : net.OutArcs(v)) {
      const Seconds cand = cost + arc.cost;
      if (cand < dist[arc.head]) {
        dist[arc.head] = cand;
        queue.push({cand, arc.head});
      }
    }
  }
  return dist;
}

/// Costs from every vertex to `sink`.
inline std::vector<Seconds> ReferenceRowTo(const RoadNetwork& net,
                                           VertexId sink) {
  return ReferenceRow(net, sink, /*reverse=*/true);
}

}  // namespace mtshare::testing

#endif  // MTSHARE_TESTS_ROUTING_REFERENCE_ROWS_H_
