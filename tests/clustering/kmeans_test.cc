#include "clustering/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "mobility/transition_model.h"

namespace mtshare {
namespace {

// What the reference run did besides its result.
struct LloydTrace {
  int32_t reseeds = 0;
  /// Rows that met an exact distance tie between two centroids in the
  /// first pass.
  int32_t first_pass_ties = 0;
  /// Rows that left their centroid for a lower-index one at exactly the
  /// same distance in a later pass.
  int32_t tie_moves = 0;
};

// Plain Lloyd iterations from k-means++ seeding, n * k distances a pass:
// the result KMeans must reproduce bit for bit from the same Rng state.
KMeansResult ReferenceLloyd(const std::vector<double>& data, size_t dim,
                            const KMeansOptions& opt, Rng& rng,
                            LloydTrace* trace) {
  const size_t n = data.size() / dim;
  KMeansResult r;
  const int32_t k = std::max<int32_t>(1, std::min<int32_t>(opt.k, n));
  r.k_effective = k;
  std::vector<size_t> chosen = {size_t(rng.NextInt(0, int64_t(n) - 1))};
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  for (int32_t c = 1; c < k; ++c) {
    for (size_t i = 0; i < n; ++i) {
      min_d2[i] = std::min(
          min_d2[i], RowCentroidDistanceSquared(data, dim, i, data,
                                                chosen.back()));
    }
    chosen.push_back(rng.NextDiscrete(min_d2));
  }
  for (size_t row : chosen) {
    r.centroids.insert(r.centroids.end(), data.begin() + row * dim,
                       data.begin() + (row + 1) * dim);
  }
  r.assignment.assign(n, 0);
  auto dist = [&](size_t i, size_t c) {
    return RowCentroidDistanceSquared(data, dim, i, r.centroids, c);
  };
  auto assign = [&] {
    r.inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const int32_t previous = r.assignment[i];
      double best = std::numeric_limits<double>::infinity();
      for (int32_t c = 0; c < k; ++c) {
        const double d2 = dist(i, c);
        if (d2 == best && r.iterations <= 1) ++trace->first_pass_ties;
        if (d2 < best) best = d2, r.assignment[i] = c;
      }
      if (r.iterations > 1 && r.assignment[i] != previous &&
          dist(i, previous) == best) {
        ++trace->tie_moves;
      }
      r.inertia += best;
    }
  };
  for (int32_t iter = 0; iter < opt.max_iterations; ++iter) {
    r.iterations = iter + 1;
    assign();
    std::vector<double> next(size_t(k) * dim, 0.0);
    std::vector<int64_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      ++counts[r.assignment[i]];
      for (size_t j = 0; j < dim; ++j) {
        next[r.assignment[i] * dim + j] += data[i * dim + j];
      }
    }
    for (int32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        ++trace->reseeds;
        size_t worst_row = 0;
        double worst = -1.0;
        for (size_t i = 0; i < n; ++i) {
          if (dist(i, r.assignment[i]) > worst) {
            worst = dist(i, r.assignment[i]);
            worst_row = i;
          }
        }
        std::copy_n(data.begin() + worst_row * dim, dim,
                    next.begin() + c * dim);
      } else {
        for (size_t j = 0; j < dim; ++j) next[c * dim + j] /= counts[c];
      }
    }
    double movement = 0.0;
    for (size_t idx = 0; idx < next.size(); ++idx) {
      movement += (next[idx] - r.centroids[idx]) * (next[idx] - r.centroids[idx]);
    }
    r.centroids.swap(next);
    if (movement < opt.tolerance) break;
  }
  assign();
  return r;
}

// Runs KMeans and the reference from the same seed; everything but the
// distance count must be bit-identical, and both must draw the same
// random numbers.
LloydTrace ExpectMatchesLloyd(const std::vector<double>& data, size_t dim,
                              const KMeansOptions& opt, uint64_t seed,
                              KMeansResult* out = nullptr) {
  Rng ref_rng(seed);
  Rng rng(seed);
  LloydTrace trace;
  const KMeansResult want = ReferenceLloyd(data, dim, opt, ref_rng, &trace);
  const KMeansResult got = KMeans(data, dim, opt, rng);
  EXPECT_EQ(got.k_effective, want.k_effective);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.centroids, want.centroids);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.inertia, want.inertia);
  EXPECT_EQ(rng.Next(), ref_rng.Next());
  if (out != nullptr) *out = got;
  return trace;
}

std::vector<double> GaussianRows(size_t rows, size_t dim, int blobs,
                                 Rng& rng) {
  std::vector<double> centers(size_t(blobs) * dim);
  for (double& c : centers) c = rng.NextUniform(-20.0, 20.0);
  std::vector<double> data;
  for (size_t i = 0; i < rows; ++i) {
    const size_t b = i % blobs;
    for (size_t j = 0; j < dim; ++j) {
      data.push_back(centers[b * dim + j] + rng.NextGaussian());
    }
  }
  return data;
}

// Rows like the partitioner's transition vectors: sparse destination
// histograms over `groups` vertex groups, and the city-wide prior,
// duplicated, for every vertex that saw no trip.
std::vector<double> TransitionLikeRows(int32_t vertices, int32_t groups,
                                       int32_t trips, Rng& rng) {
  std::vector<int32_t> group(vertices);
  for (int32_t v = 0; v < vertices; ++v) group[v] = v * groups / vertices;
  std::vector<OdPair> od;
  for (int32_t t = 0; t < trips; ++t) {
    const VertexId o = VertexId(rng.NextInt(0, vertices * 3 / 4));
    const VertexId d = VertexId(
        (o + rng.NextInt(0, vertices / 5) + (o % 3) * vertices / 3) %
        vertices);
    od.emplace_back(o, d);
  }
  return TransitionModel::Build(vertices, groups, group, od).rows();
}

// Three tight 2-d blobs far apart.
std::vector<double> ThreeBlobs(int per_blob, Rng& rng) {
  std::vector<double> data;
  const double centers[3][2] = {{0, 0}, {100, 0}, {0, 100}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      data.push_back(centers[b][0] + rng.NextGaussian());
      data.push_back(centers[b][1] + rng.NextGaussian());
    }
  }
  return data;
}

TEST(KMeansTest, SeparatesObviousBlobs) {
  Rng rng(41);
  auto data = ThreeBlobs(40, rng);
  KMeansOptions opt;
  opt.k = 3;
  KMeansResult r = KMeans(data, 2, opt, rng);
  EXPECT_EQ(r.k_effective, 3);
  // All rows of one blob share a label, and the three labels differ.
  std::set<int32_t> labels;
  for (int b = 0; b < 3; ++b) {
    int32_t label = r.assignment[b * 40];
    labels.insert(label);
    for (int i = 0; i < 40; ++i) EXPECT_EQ(r.assignment[b * 40 + i], label);
  }
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeansTest, InertiaSmallForTightBlobs) {
  Rng rng(43);
  auto data = ThreeBlobs(30, rng);
  KMeansOptions opt;
  opt.k = 3;
  KMeansResult r = KMeans(data, 2, opt, rng);
  // Each point ~N(0,1) around its centroid: expected inertia ~= 2 * n.
  EXPECT_LT(r.inertia, 4.0 * 90.0);
}

TEST(KMeansTest, KLargerThanRowsClampsToRows) {
  Rng rng(47);
  std::vector<double> data = {0, 0, 10, 10};
  KMeansOptions opt;
  opt.k = 8;
  KMeansResult r = KMeans(data, 2, opt, rng);
  EXPECT_EQ(r.k_effective, 2);
  EXPECT_NE(r.assignment[0], r.assignment[1]);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, EmptyInput) {
  Rng rng(53);
  KMeansResult r = KMeans({}, 3, KMeansOptions{}, rng);
  EXPECT_EQ(r.k_effective, 0);
  EXPECT_TRUE(r.assignment.empty());
}

TEST(KMeansTest, SingleCluster) {
  Rng rng(59);
  std::vector<double> data = {1, 1, 2, 2, 3, 3};
  KMeansOptions opt;
  opt.k = 1;
  KMeansResult r = KMeans(data, 2, opt, rng);
  EXPECT_EQ(r.k_effective, 1);
  EXPECT_NEAR(r.centroids[0], 2.0, 1e-9);
  EXPECT_NEAR(r.centroids[1], 2.0, 1e-9);
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  Rng rng(61);
  std::vector<double> data(40, 5.0);  // 20 identical 2-d points
  KMeansOptions opt;
  opt.k = 4;
  KMeansResult r = KMeans(data, 2, opt, rng);
  EXPECT_EQ(r.k_effective, 4);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, HighDimensionalRows) {
  // Transition-probability vectors are high-dimensional; exercise dim=16.
  Rng rng(67);
  std::vector<double> data;
  for (int row = 0; row < 30; ++row) {
    for (int j = 0; j < 16; ++j) {
      // Two groups: mass on dim 0..7 vs dims 8..15.
      bool first_half = row < 15;
      data.push_back((first_half == (j < 8)) ? 1.0 + 0.01 * rng.NextGaussian()
                                             : 0.0);
    }
  }
  KMeansOptions opt;
  opt.k = 2;
  KMeansResult r = KMeans(data, 16, opt, rng);
  for (int row = 0; row < 15; ++row) {
    EXPECT_EQ(r.assignment[row], r.assignment[0]);
  }
  for (int row = 15; row < 30; ++row) {
    EXPECT_EQ(r.assignment[row], r.assignment[15]);
  }
  EXPECT_NE(r.assignment[0], r.assignment[15]);
}

TEST(KMeansTest, AssignmentConsistentWithCentroids) {
  Rng rng(73);
  auto data = ThreeBlobs(20, rng);
  KMeansOptions opt;
  opt.k = 3;
  KMeansResult r = KMeans(data, 2, opt, rng);
  // Every row is assigned to its nearest centroid.
  for (size_t row = 0; row < r.assignment.size(); ++row) {
    double own = RowCentroidDistanceSquared(data, 2, row, r.centroids,
                                            r.assignment[row]);
    for (int32_t c = 0; c < r.k_effective; ++c) {
      EXPECT_LE(own,
                RowCentroidDistanceSquared(data, 2, row, r.centroids, c) +
                    1e-9);
    }
  }
}

TEST(KMeansTest, BoundedMatchesLloydAcrossDimensions) {
  for (size_t dim : {1, 2, 16, 120}) {
    Rng rng(79 + dim);
    const auto data = GaussianRows(240, dim, 6, rng);
    KMeansOptions opt;
    opt.k = 9;
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " seed " << seed);
      ExpectMatchesLloyd(data, dim, opt, seed);
    }
  }
}

TEST(KMeansTest, BoundedMatchesLloydForEveryK) {
  Rng rng(83);
  const auto data = GaussianRows(40, 2, 4, rng);
  for (int32_t k : {1, 2, 7, 39, 40, 64}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    KMeansOptions opt;
    opt.k = k;
    KMeansResult got;
    ExpectMatchesLloyd(data, 2, opt, 5, &got);
    EXPECT_EQ(got.k_effective, std::min(k, 40));
  }
}

TEST(KMeansTest, BoundedMatchesLloydOnDuplicateRows) {
  // Two thirds of the vertices saw no trip and carry the identical prior.
  Rng rng(89);
  const auto data = TransitionLikeRows(300, 40, 150, rng);
  KMeansOptions opt;
  opt.k = 12;
  for (uint64_t seed : {7, 8, 9}) ExpectMatchesLloyd(data, 40, opt, seed);
}

TEST(KMeansTest, BoundedBreaksExactTiesTowardTheLowestIndex) {
  // Rows (0, 0) sit exactly halfway between the (-1, 0) and (1, 0)
  // clusters: seeding lands centroids on both, so the first pass ties.
  std::vector<double> data;
  for (int i = 0; i < 4; ++i) {
    data.insert(data.end(), {-1, 0, 1, 0, 0, 12, 12, 0, 0, 0});
  }
  KMeansOptions opt;
  opt.k = 4;
  int32_t ties = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ties += ExpectMatchesLloyd(data, 2, opt, seed).first_pass_ties;
  }
  EXPECT_GT(ties, 0);

  // Twelve values in 0..3, k = 2: after centroids move, some rows sit
  // exactly between them while assigned to the higher index. A full scan
  // moves them to the lower one; a scan seeded with the row's current
  // centroid would not.
  opt.k = 2;
  int32_t tie_moves = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<double> lattice;
    for (int i = 0; i < 12; ++i) lattice.push_back(double(rng.NextInt(0, 3)));
    tie_moves += ExpectMatchesLloyd(lattice, 1, opt, seed).tie_moves;
  }
  EXPECT_GT(tie_moves, 0);
}

TEST(KMeansTest, BoundedMatchesLloydThroughEmptyClusterReseeds) {
  // Three distinct points and k = 5: seeding runs out of distinct rows,
  // duplicate centroids leave clusters empty, and they are reseeded.
  std::vector<double> data;
  for (int i = 0; i < 6; ++i) data.insert(data.end(), {0, 0, 3, 1, 7, 7});
  KMeansOptions opt;
  opt.k = 5;
  int32_t reseeds = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    reseeds += ExpectMatchesLloyd(data, 2, opt, seed).reseeds;
  }
  EXPECT_GT(reseeds, 0);
}

TEST(KMeansTest, BoundedMatchesLloydOnToleranceAndIterationCap) {
  Rng rng(97);
  const auto data = GaussianRows(300, 2, 10, rng);
  KMeansOptions opt;
  opt.k = 12;
  opt.tolerance = 0.5;  // stops while centroids still move
  KMeansResult early;
  ExpectMatchesLloyd(data, 2, opt, 11, &early);
  opt.tolerance = 0.0;  // never met: runs to the cap
  opt.max_iterations = 15;
  KMeansResult capped;
  ExpectMatchesLloyd(data, 2, opt, 11, &capped);
  EXPECT_EQ(capped.iterations, 15);
  EXPECT_LT(early.iterations, capped.iterations);
  opt.max_iterations = 0;  // the seeding pass alone
  ExpectMatchesLloyd(data, 2, opt, 11);
}

TEST(KMeansTest, BoundsSkipMostDistancesOnTransitionRows) {
  Rng rng(101);
  const int32_t vertices = 600;
  const auto data = TransitionLikeRows(vertices, 120, 3000, rng);
  KMeansOptions opt;
  opt.k = 20;
  KMeansResult got;
  ExpectMatchesLloyd(data, 120, opt, 13, &got);
  // Lloyd pays n per k-means++ draw after the first, then n * k per pass
  // (iterations + the final one). The bounds must skip over half of that.
  const int64_t lloyd = int64_t(vertices) * (opt.k - 1) +
                        int64_t(vertices) * opt.k * (got.iterations + 1);
  EXPECT_GT(got.distance_evals, 0);
  EXPECT_LT(2 * got.distance_evals, lloyd);
}

}  // namespace
}  // namespace mtshare
