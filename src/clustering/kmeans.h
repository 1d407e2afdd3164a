#ifndef MTSHARE_CLUSTERING_KMEANS_H_
#define MTSHARE_CLUSTERING_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace mtshare {

/// Options for k-means (k-means++ seeding, then Lloyd iterations).
struct KMeansOptions {
  int32_t k = 8;
  int32_t max_iterations = 60;
  /// Stop when total centroid movement (squared) falls below this.
  double tolerance = 1e-6;
};

struct KMeansResult {
  /// Cluster id per input row, in [0, k_effective).
  std::vector<int32_t> assignment;
  /// Row-major centroids, k_effective x dim.
  std::vector<double> centroids;
  int32_t k_effective = 0;
  int32_t iterations = 0;
  /// Sum of squared distances from each row to its centroid.
  double inertia = 0.0;
  /// Row-to-centroid squared distances evaluated, seeding and the final
  /// inertia included. Lloyd's algorithm would pay num_rows * k per pass.
  int64_t distance_evals = 0;
};

/// Clusters `num_rows` points of dimension `dim`, stored row-major in
/// `data`. Both stages of the paper's bipartite map partitioning
/// (geo-clustering on coordinates, transition clustering on probability
/// vectors; Sec. IV-B1) run through this routine.
///
/// Assignments use Elkan's triangle-inequality bounds (DESIGN.md §5): one
/// upper and k lower bounds per row skip centroids that cannot win. A
/// bound prunes only with slack, surviving centroids are measured exactly
/// and scanned in index order, and centroid sums are recomputed from
/// scratch, so the result (assignment, centroids, iterations, inertia) is
/// bit-identical to plain Lloyd iterations from the same seeding. The
/// bounds take num_rows x k doubles while the call runs.
///
/// If k >= num_rows, every row becomes its own cluster. Clusters that fall
/// empty during iteration are reseeded to the point farthest from its
/// centroid, so k_effective == min(k, num_rows) always holds.
KMeansResult KMeans(const std::vector<double>& data, size_t dim,
                    const KMeansOptions& options, Rng& rng);

/// Squared Euclidean distance between row `row` of data and a centroid.
double RowCentroidDistanceSquared(const std::vector<double>& data, size_t dim,
                                  size_t row, const std::vector<double>& centroids,
                                  size_t centroid);

}  // namespace mtshare

#endif  // MTSHARE_CLUSTERING_KMEANS_H_
