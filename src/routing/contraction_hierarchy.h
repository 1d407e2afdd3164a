#ifndef MTSHARE_ROUTING_CONTRACTION_HIERARCHY_H_
#define MTSHARE_ROUTING_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/road_network.h"

namespace mtshare {

/// Preprocessing knobs. The defaults are tuned for road-like graphs
/// (degree 2-4, near-planar); denser graphs still contract correctly, just
/// with more shortcuts.
struct ChOptions {
  /// Witness searches give up after settling this many vertices. A missed
  /// witness only adds a redundant shortcut (correct but larger index),
  /// never a wrong distance.
  int32_t witness_settle_limit = 500;
};

/// Counters describing one preprocessing run (surfaced through
/// Metrics::routing into the run report).
struct ChBuildStats {
  int64_t shortcuts_added = 0;
  double preprocessing_ms = 0.0;
};

/// A contraction hierarchy over a RoadNetwork (Geisberger et al.;
/// the bucket-query substrate of Laupichler & Sanders, arXiv:2311.01581).
///
/// Offline, nodes are contracted in importance order (edge difference +
/// contracted-neighbor + level heuristic with a lazy-update priority
/// queue); contracting v inserts a shortcut (u, w) for every in/out
/// neighbor pair whose shortest u->w path runs through v, guarded by a
/// limited witness search. The result is stored as two CSR search graphs:
///
///   UpArcs(v)   — arcs (v -> h) with rank[h] > rank[v]   (forward search)
///   DownArcs(v) — arcs (t -> v) with rank[t] > rank[v],
///                 stored head = t                         (backward search)
///
/// Every s-t shortest distance is realized by some up-down path, so a
/// bidirectional search that only ever goes upward in rank answers point
/// queries after settling a few hundred vertices, and one upward search
/// plus one sweep in rank order yields a whole one-to-all row (RowFrom).
/// Because arc costs live on the exact dyadic grid (see
/// QuantizeTravelCost), shortcut sums are exact and CH distances are
/// bit-identical to Dijkstra's.
///
/// Immutable after Build(); safe to share across query threads.
class ContractionHierarchy {
 public:
  struct SearchArc {
    VertexId head = kInvalidVertex;
    Seconds cost = 0.0;
  };

  /// Contracts the whole network, sequentially and deterministically.
  static ContractionHierarchy Build(const RoadNetwork& network,
                                    const ChOptions& options = {});

  int32_t num_vertices() const {
    return static_cast<int32_t>(rank_.size());
  }
  /// Contraction rank of v (0 = contracted first / least important).
  int32_t rank(VertexId v) const { return rank_[v]; }

  std::span<const SearchArc> UpArcs(VertexId v) const { return up_.Arcs(v); }
  std::span<const SearchArc> DownArcs(VertexId v) const {
    return down_.Arcs(v);
  }

  /// Costs from `source` to every vertex (kInfiniteCost where unreachable)
  /// by PHAST (Delling, Goldberg, Nowatzyk, Werneck, IPDPS 2011): a full
  /// upward search from `source`, then one pass over every vertex in
  /// descending rank that takes min(dist[t] + c) over its DownArcs. A
  /// DownArcs tail outranks its head, so its cost is final when read.
  /// Bit-identical to a Dijkstra row. Thread-safe (no shared scratch).
  std::vector<Seconds> RowFrom(VertexId source) const;

  /// Mirror sweep: costs from every vertex to `target` (an upward search
  /// over DownArcs, then the descending pass over UpArcs).
  std::vector<Seconds> RowTo(VertexId target) const;

  const ChBuildStats& stats() const { return stats_; }

  /// Resident bytes of the search graphs (Tab. IV memory accounting).
  size_t MemoryBytes() const;

 private:
  /// One CSR search graph: the arcs of v are arcs[offsets[v], offsets[v+1]).
  struct SearchGraph {
    std::vector<int32_t> offsets;
    std::vector<SearchArc> arcs;

    std::span<const SearchArc> Arcs(VertexId v) const {
      return {arcs.data() + offsets[v], arcs.data() + offsets[v + 1]};
    }
  };

  /// PHAST row rooted at `root`: upward search over `climb`, then the
  /// descending-rank pass pulling over `pull`.
  std::vector<Seconds> Sweep(VertexId root, const SearchGraph& climb,
                             const SearchGraph& pull) const;

  std::vector<int32_t> rank_;
  /// by_rank_[r] is the vertex of rank r (the sweep order, reversed).
  std::vector<VertexId> by_rank_;
  SearchGraph up_;
  SearchGraph down_;
  ChBuildStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_CONTRACTION_HIERARCHY_H_
