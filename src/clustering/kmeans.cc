#include "clustering/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mtshare {
namespace {

/// A bound prunes a centroid only when it wins by this fraction of the
/// row's distance plus this fraction of the data's bounding-box diagonal.
/// Rounding in the distances and in the accumulated bounds stays near
/// 1e-13 of those scales, so a pruned centroid is strictly farther than
/// the winner in the same floating-point arithmetic Lloyd's scan uses.
constexpr double kPruneSlack = 1e-9;

/// Elkan's exact k-means assignment ("Using the Triangle Inequality to
/// Accelerate k-Means", ICML 2003). Per row it keeps an upper bound on the
/// distance to its own centroid and a lower bound on the distance to every
/// centroid; per pass it keeps half the centroid-to-centroid distances.
/// Distances here are Euclidean (not squared): only they obey the
/// triangle inequality. Lower bounds are stored offset by the centroid's
/// cumulative drift, so a centroid move costs O(1) instead of a pass over
/// every row's bounds.
class BoundedAssigner {
 public:
  BoundedAssigner(const std::vector<double>& data, size_t dim, size_t rows,
                  int32_t k, KMeansResult* result)
      : data_(data),
        dim_(dim),
        rows_(rows),
        k_(static_cast<size_t>(k)),
        result_(result),
        upper_(rows),
        lower_(rows * k_),
        drift_sum_(k_, 0.0),
        half_cc_(k_ * k_, 0.0) {
    double diag2 = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      double lo = data_[j];
      double hi = data_[j];
      for (size_t i = 1; i < rows_; ++i) {
        lo = std::min(lo, data_[i * dim_ + j]);
        hi = std::max(hi, data_[i * dim_ + j]);
      }
      diag2 += (hi - lo) * (hi - lo);
    }
    abs_slack_ = kPruneSlack * std::sqrt(diag2);
  }

  /// k-means++ seeding fused with the first assignment pass. Seeding
  /// measures every row against each chosen centre to weight the next
  /// draw; those are the first pass's distances, so they fill the bounds,
  /// and the running nearest centre is the first pass's assignment.
  void SeedAndAssign(Rng& rng) {
    std::vector<double>& centroids = result_->centroids;
    std::vector<int32_t>& nearest = result_->assignment;
    centroids.assign(k_ * dim_, 0.0);
    nearest.assign(rows_, 0);
    std::vector<double> min_d2(rows_, std::numeric_limits<double>::infinity());
    size_t pick = static_cast<size_t>(
        rng.NextInt(0, static_cast<int64_t>(rows_) - 1));
    for (size_t c = 0; c < k_; ++c) {
      std::copy_n(data_.begin() + pick * dim_, dim_,
                  centroids.begin() + c * dim_);
      for (size_t i = 0; i < rows_; ++i) {
        const double d2 = Distance2(i, c);
        lower_[i * k_ + c] = std::sqrt(d2);
        if (d2 < min_d2[i]) {
          min_d2[i] = d2;
          nearest[i] = static_cast<int32_t>(c);
          upper_[i] = lower_[i * k_ + c];
        }
      }
      if (c + 1 < k_) pick = rng.NextDiscrete(min_d2);
    }
  }

  /// Records that centroid c moved by `drift[c]`: upper bounds grow and
  /// lower bounds shrink by that much.
  void ShiftBounds(const std::vector<double>& drift) {
    for (size_t i = 0; i < rows_; ++i) {
      upper_[i] += drift[result_->assignment[i]];
    }
    for (size_t c = 0; c < k_; ++c) drift_sum_[c] += drift[c];
  }

  /// One assignment pass against the current centroids. A row whose
  /// bounds fail is measured against its own centroid and every centroid
  /// the bounds do not prune, in ascending centroid index with strict <:
  /// the tie-break of a full scan.
  void Reassign() {
    SetHalfCentreDistances();
    std::vector<int32_t>& assignment = result_->assignment;
    for (size_t i = 0; i < rows_; ++i) {
      const size_t a = static_cast<size_t>(assignment[i]);
      const double* half_a = &half_cc_[a * k_];
      double* lower = &lower_[i * k_];
      // Elkan's test with the stale upper bound: the row keeps its
      // centroid unless another one survives both bounds.
      const double loose = Loose(upper_[i]);
      bool open = false;
      for (size_t c = 0; c < k_ && !open; ++c) {
        open = c != a && half_a[c] <= loose &&
               lower[c] - drift_sum_[c] <= loose;
      }
      if (!open) continue;

      const double own_d2 = Distance2(i, a);
      const double own_d = std::sqrt(own_d2);
      lower[a] = own_d + drift_sum_[a];
      const double threshold = Loose(own_d);
      // Lower bounds also prune against the nearest centroid measured so
      // far, which can only be nearer than a.
      double prune_above = threshold;
      double best_d2 = std::numeric_limits<double>::infinity();
      size_t best = a;
      for (size_t c = 0; c < k_; ++c) {
        double d2 = own_d2;
        if (c != a) {
          if (half_a[c] > threshold ||
              lower[c] - drift_sum_[c] > prune_above) {
            continue;
          }
          d2 = Distance2(i, c);
          const double d = std::sqrt(d2);
          lower[c] = d + drift_sum_[c];
          prune_above = std::min(prune_above, Loose(d));
        }
        if (d2 < best_d2) {
          best_d2 = d2;
          best = c;
        }
      }
      assignment[i] = static_cast<int32_t>(best);
      upper_[i] = std::sqrt(best_d2);
    }
  }

  double Distance2(size_t row, size_t centroid) {
    ++result_->distance_evals;
    return RowCentroidDistanceSquared(data_, dim_, row, result_->centroids,
                                      centroid);
  }

 private:
  double Loose(double d) const { return d * (1.0 + kPruneSlack) + abs_slack_; }

  /// Refreshes half the centroid-to-centroid distances for this pass.
  void SetHalfCentreDistances() {
    const std::vector<double>& centroids = result_->centroids;
    for (size_t a = 0; a < k_; ++a) {
      for (size_t b = 0; b < a; ++b) {
        double acc = 0.0;
        for (size_t j = 0; j < dim_; ++j) {
          const double d = centroids[a * dim_ + j] - centroids[b * dim_ + j];
          acc += d * d;
        }
        const double half = 0.5 * std::sqrt(acc);
        half_cc_[a * k_ + b] = half;
        half_cc_[b * k_ + a] = half;
      }
    }
  }

  const std::vector<double>& data_;
  const size_t dim_;
  const size_t rows_;
  const size_t k_;
  KMeansResult* result_;
  double abs_slack_ = 0.0;
  /// Per row: upper bound on the distance to its assigned centroid.
  std::vector<double> upper_;
  /// Row-major rows x k: lower bound on the distance from the row to the
  /// centroid, plus drift_sum_ of that centroid when the bound was set.
  std::vector<double> lower_;
  /// Per centroid: total distance moved since seeding.
  std::vector<double> drift_sum_;
  /// k x k: half the distance between two centroids.
  std::vector<double> half_cc_;
};

}  // namespace

double RowCentroidDistanceSquared(const std::vector<double>& data, size_t dim,
                                  size_t row,
                                  const std::vector<double>& centroids,
                                  size_t centroid) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    double d = data[row * dim + j] - centroids[centroid * dim + j];
    acc += d * d;
  }
  return acc;
}

KMeansResult KMeans(const std::vector<double>& data, size_t dim,
                    const KMeansOptions& options, Rng& rng) {
  MTSHARE_CHECK(dim > 0);
  MTSHARE_CHECK(data.size() % dim == 0);
  const size_t num_rows = data.size() / dim;
  KMeansResult result;
  if (num_rows == 0) return result;

  const int32_t k =
      std::max<int32_t>(1, std::min<int32_t>(options.k,
                                             static_cast<int32_t>(num_rows)));
  result.k_effective = k;

  BoundedAssigner assigner(data, dim, num_rows, k, &result);
  // The assignment is current for the centroids after seeding.
  assigner.SeedAndAssign(rng);
  bool assigned = true;

  std::vector<double> new_centroids(static_cast<size_t>(k) * dim);
  std::vector<int64_t> counts(k);
  std::vector<double> drift(k);

  for (int32_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (!assigned) assigner.Reassign();

    // Update step: sums from scratch, in row order.
    std::fill(new_centroids.begin(), new_centroids.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < num_rows; ++i) {
      int32_t c = result.assignment[i];
      ++counts[c];
      for (size_t j = 0; j < dim; ++j) {
        new_centroids[static_cast<size_t>(c) * dim + j] += data[i * dim + j];
      }
    }
    for (int32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Reseed the empty cluster at the row farthest from its centroid.
        size_t worst_row = 0;
        double worst = -1.0;
        for (size_t i = 0; i < num_rows; ++i) {
          double d2 = assigner.Distance2(
              i, static_cast<size_t>(result.assignment[i]));
          if (d2 > worst) {
            worst = d2;
            worst_row = i;
          }
        }
        std::copy_n(data.begin() + worst_row * dim, dim,
                    new_centroids.begin() + static_cast<size_t>(c) * dim);
      } else {
        for (size_t j = 0; j < dim; ++j) {
          new_centroids[static_cast<size_t>(c) * dim + j] /=
              static_cast<double>(counts[c]);
        }
      }
    }

    double movement = 0.0;
    for (size_t idx = 0; idx < new_centroids.size(); ++idx) {
      double d = new_centroids[idx] - result.centroids[idx];
      movement += d * d;
    }
    for (int32_t c = 0; c < k; ++c) {
      double acc = 0.0;
      for (size_t j = 0; j < dim; ++j) {
        const size_t idx = static_cast<size_t>(c) * dim + j;
        const double d = new_centroids[idx] - result.centroids[idx];
        acc += d * d;
      }
      drift[c] = std::sqrt(acc);
    }
    result.centroids.swap(new_centroids);
    assigner.ShiftBounds(drift);
    assigned = false;
    if (movement < options.tolerance) break;
  }

  // Final assignment against the last centroids; the inertia sums the
  // final distances in row order, as a full scan would.
  if (!assigned) assigner.Reassign();
  double inertia = 0.0;
  for (size_t i = 0; i < num_rows; ++i) {
    inertia += assigner.Distance2(i, static_cast<size_t>(result.assignment[i]));
  }
  result.inertia = inertia;
  return result;
}

}  // namespace mtshare
