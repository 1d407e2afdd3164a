#include "partition/bipartite_partitioner.h"

#include <algorithm>
#include <cmath>

#include "clustering/kmeans.h"
#include "common/logging.h"
#include "common/random.h"

namespace mtshare {
namespace {

/// Canonicalizes labels to first-occurrence order so two label vectors can
/// be compared for identical groupings regardless of label permutation.
std::vector<int32_t> CanonicalizeLabels(const std::vector<int32_t>& labels) {
  std::vector<int32_t> mapping(labels.size(), -1);
  std::vector<int32_t> out(labels.size());
  int32_t next = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    int32_t l = labels[i];
    MTSHARE_CHECK(l >= 0 && l < static_cast<int32_t>(labels.size()));
    if (mapping[l] == -1) mapping[l] = next++;
    out[i] = mapping[l];
  }
  return out;
}

double ChangeFraction(const std::vector<int32_t>& a,
                      const std::vector<int32_t>& b) {
  MTSHARE_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  size_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++diff;
  }
  return static_cast<double>(diff) / static_cast<double>(a.size());
}

/// Geo k-means over `vertices` with k clusters.
KMeansResult GeoCluster(const RoadNetwork& network,
                        const std::vector<VertexId>& vertices, int32_t k,
                        Rng& rng, BipartiteDiagnostics* diag) {
  std::vector<double> coords;
  coords.reserve(vertices.size() * 2);
  for (VertexId v : vertices) {
    coords.push_back(network.coord(v).x);
    coords.push_back(network.coord(v).y);
  }
  KMeansOptions opt;
  opt.k = k;
  KMeansResult geo = KMeans(coords, 2, opt, rng);
  diag->kmeans_iterations += geo.iterations;
  diag->kmeans_distance_evals += geo.distance_evals;
  return geo;
}

}  // namespace

MapPartitioning BipartitePartition(const RoadNetwork& network,
                                   const std::vector<OdPair>& historical_trips,
                                   const BipartiteOptions& options,
                                   BipartiteDiagnostics* diagnostics) {
  MTSHARE_CHECK(network.num_vertices() > 0);
  MTSHARE_CHECK(options.kappa > 0);
  MTSHARE_CHECK(options.kt > 0);
  const int32_t n = network.num_vertices();
  Rng rng(options.seed);

  BipartiteDiagnostics diag;
  // Initial spatial clusters: plain geo k-means with k = kappa.
  std::vector<VertexId> all_vertices(n);
  for (VertexId v = 0; v < n; ++v) all_vertices[v] = v;
  std::vector<int32_t> spatial =
      GeoCluster(network, all_vertices, options.kappa, rng, &diag).assignment;
  int32_t num_spatial =
      1 + *std::max_element(spatial.begin(), spatial.end());
  std::vector<int32_t> canonical = CanonicalizeLabels(spatial);

  for (int32_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    diag.outer_iterations = outer + 1;

    // Step 1: transition probability vectors against current clusters.
    TransitionModel transitions = TransitionModel::Build(
        n, num_spatial, spatial, historical_trips, options.laplace_alpha);

    // Step 2: k-means over the transition vectors -> kt transition clusters.
    KMeansOptions topt;
    topt.k = options.kt;
    KMeansResult trans =
        KMeans(transitions.rows(), num_spatial, topt, rng);
    diag.kmeans_iterations += trans.iterations;
    diag.kmeans_distance_evals += trans.distance_evals;

    // Step 3: geo-cluster each transition cluster into
    // floor(n_c * kappa / N + 1/2) spatial clusters.
    std::vector<std::vector<VertexId>> trans_members(trans.k_effective);
    for (VertexId v = 0; v < n; ++v) {
      trans_members[trans.assignment[v]].push_back(v);
    }
    std::vector<int32_t> new_spatial(n, -1);
    int32_t next_label = 0;
    for (const auto& members : trans_members) {
      if (members.empty()) continue;
      int32_t sub_k = std::max<int32_t>(
          1, static_cast<int32_t>(std::floor(
                 static_cast<double>(members.size()) * options.kappa / n +
                 0.5)));
      KMeansResult geo = GeoCluster(network, members, sub_k, rng, &diag);
      for (size_t i = 0; i < members.size(); ++i) {
        new_spatial[members[i]] = next_label + geo.assignment[i];
      }
      next_label += geo.k_effective;
    }
    MTSHARE_CHECK(std::count(new_spatial.begin(), new_spatial.end(), -1) == 0);

    std::vector<int32_t> new_canonical = CanonicalizeLabels(new_spatial);
    diag.last_change_fraction = ChangeFraction(canonical, new_canonical);
    spatial = std::move(new_spatial);
    num_spatial = next_label;
    canonical = std::move(new_canonical);
    if (diag.last_change_fraction == 0.0) {
      diag.converged = true;
      break;
    }
  }

  MapPartitioning out;
  out.vertex_partition.assign(canonical.begin(), canonical.end());
  int32_t k = 1 + *std::max_element(canonical.begin(), canonical.end());
  out.partition_vertices.resize(k);
  for (VertexId v = 0; v < n; ++v) {
    out.partition_vertices[canonical[v]].push_back(v);
  }
  FinalizeGeometry(network, &out);
  if (diagnostics != nullptr) *diagnostics = diag;
  MTSHARE_LOG(kDebug) << "bipartite partitioning: " << k << " partitions in "
                      << diag.outer_iterations << " iterations (converged="
                      << diag.converged << ")";
  return out;
}

}  // namespace mtshare
