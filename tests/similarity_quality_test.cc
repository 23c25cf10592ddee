#include "similarity/cluster_quality.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.h"

namespace tamp::similarity {
namespace {

/// A fixed symmetric similarity over 5 tasks used across tests.
PairwiseSimilarity MakeFixture() {
  // Two natural groups: {0,1,2} similar (0.9), {3,4} similar (0.8),
  // cross-group 0.1.
  return PairwiseSimilarity(5, [](int i, int j) {
    bool gi = i <= 2, gj = j <= 2;
    if (gi != gj) return 0.1;
    return gi ? 0.9 : 0.8;
  });
}

TEST(PairwiseSimilarityTest, DiagonalIsOne) {
  auto sim = MakeFixture();
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(sim(i, i), 1.0);
}

TEST(PairwiseSimilarityTest, SymmetricAccess) {
  auto sim = MakeFixture();
  EXPECT_DOUBLE_EQ(sim(0, 3), sim(3, 0));
  EXPECT_DOUBLE_EQ(sim(1, 2), 0.9);
}

TEST(PairwiseSimilarityTest, CachesComputation) {
  // Atomic: Materialize() calls the similarity function from pool threads.
  std::atomic<int> calls = 0;
  PairwiseSimilarity sim(3, [&calls](int, int) {
    ++calls;
    return 0.5;
  });
  sim(0, 1);
  sim(1, 0);
  sim(0, 1);
  EXPECT_EQ(calls, 1);
  sim.Materialize();
  EXPECT_EQ(calls, 3);  // All 3 unordered pairs.
}

TEST(ClusterQualityTest, EmptyClusterIsZero) {
  auto sim = MakeFixture();
  EXPECT_EQ(ClusterQuality(sim, {}, 0.2), 0.0);
}

TEST(ClusterQualityTest, SingletonIsGamma) {
  auto sim = MakeFixture();
  EXPECT_DOUBLE_EQ(ClusterQuality(sim, {2}, 0.2), 0.2);
  EXPECT_DOUBLE_EQ(ClusterQuality(sim, {2}, 0.7), 0.7);
}

TEST(ClusterQualityTest, PairIsTheirSimilarity) {
  auto sim = MakeFixture();
  // Eq. 4 for |G|=2: 2 * s / (2 * 1) = s.
  EXPECT_DOUBLE_EQ(ClusterQuality(sim, {0, 1}, 0.2), 0.9);
  EXPECT_DOUBLE_EQ(ClusterQuality(sim, {0, 3}, 0.2), 0.1);
}

TEST(ClusterQualityTest, TripleAveragesPairs) {
  auto sim = MakeFixture();
  EXPECT_NEAR(ClusterQuality(sim, {0, 1, 2}, 0.2), 0.9, 1e-12);
  // Mixed cluster {0, 1, 3}: pairs 0.9, 0.1, 0.1 -> mean ~0.3667.
  EXPECT_NEAR(ClusterQuality(sim, {0, 1, 3}, 0.2), (0.9 + 0.1 + 0.1) / 3.0,
              1e-12);
}

TEST(ClusterQualityTest, CoherentClusterBeatsMixed) {
  auto sim = MakeFixture();
  EXPECT_GT(ClusterQuality(sim, {0, 1, 2}, 0.2),
            ClusterQuality(sim, {0, 1, 3}, 0.2));
}

TEST(JoinUtilityTest, JoiningEmptyYieldsGamma) {
  auto sim = MakeFixture();
  EXPECT_DOUBLE_EQ(JoinUtility(sim, {}, 0, 0.2), 0.2);
}

TEST(JoinUtilityTest, MatchesQualityDifference) {
  auto sim = MakeFixture();
  // u(task, G) must equal Q(G + task) - Q(G) (Eq. 5).
  std::vector<int> cluster = {0, 1};
  double expected = ClusterQuality(sim, {0, 1, 2}, 0.2) -
                    ClusterQuality(sim, {0, 1}, 0.2);
  EXPECT_NEAR(JoinUtility(sim, cluster, 2, 0.2), expected, 1e-12);
}

TEST(JoinUtilityTest, MatchesQualityDifferenceFromSingleton) {
  auto sim = MakeFixture();
  double expected =
      ClusterQuality(sim, {3, 4}, 0.2) - ClusterQuality(sim, {3}, 0.2);
  EXPECT_NEAR(JoinUtility(sim, {3}, 4, 0.2), expected, 1e-12);
}

TEST(JoinUtilityTest, SimilarTaskHasHigherUtilityThanDissimilar) {
  auto sim = MakeFixture();
  std::vector<int> cluster = {0, 1};
  EXPECT_GT(JoinUtility(sim, cluster, 2, 0.2),
            JoinUtility(sim, cluster, 4, 0.2));
}

TEST(JoinUtilityTest, RandomizedConsistencyWithQualityDifference) {
  tamp::Rng rng(31);
  // Random symmetric similarities; verify Eq. 5 identity on random subsets.
  std::vector<std::vector<double>> matrix(8, std::vector<double>(8, 0.0));
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      matrix[i][j] = matrix[j][i] = rng.Uniform01();
    }
  }
  PairwiseSimilarity sim(8, [&matrix](int i, int j) { return matrix[i][j]; });
  for (int trial = 0; trial < 30; ++trial) {
    size_t size = static_cast<size_t>(rng.UniformInt(0, 5));
    auto members = rng.SampleWithoutReplacement(7, size);
    std::vector<int> cluster(members.begin(), members.end());
    int task = 7;  // Always outside the cluster.
    std::vector<int> with = cluster;
    with.push_back(task);
    double expected = ClusterQuality(sim, with, 0.2) -
                      ClusterQuality(sim, cluster, 0.2);
    EXPECT_NEAR(JoinUtility(sim, cluster, task, 0.2), expected, 1e-12);
  }
}

}  // namespace
}  // namespace tamp::similarity
