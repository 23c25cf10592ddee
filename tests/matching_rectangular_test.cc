// Rectangular MaxWeightMatching against the square-padded oracle: the
// solver drops every vertex without a positive edge, builds a
// min(l',r') x max(l',r') cost matrix over the kept ones (transposing when
// more left than right vertices are kept), and must reproduce the padded
// solve's pairs and total_weight bitwise whenever the optimum is unique.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs/metrics.h"
#include "common/rng.h"
#include "matching/hungarian.h"
#include "matching_square_oracle.h"

namespace tamp::matching {
namespace {

using testing::SquarePaddedMaxWeightMatching;

std::vector<Edge> RandomEdges(int num_left, int num_right, double density,
                              Rng& rng) {
  std::vector<Edge> edges;
  for (int l = 0; l < num_left; ++l) {
    for (int r = 0; r < num_right; ++r) {
      if (rng.Bernoulli(density)) {
        edges.push_back({l, r, rng.Uniform(0.1, 10.0)});
      }
    }
  }
  return edges;
}

/// Every edge inside the last min(3, L) x min(2, R) corner: all other rows
/// and columns have no edge at all.
std::vector<Edge> CornerEdges(int num_left, int num_right, Rng& rng) {
  std::vector<Edge> edges;
  for (int l = num_left - std::min(3, num_left); l < num_left; ++l) {
    for (int r = num_right - std::min(2, num_right); r < num_right; ++r) {
      edges.push_back({l, r, rng.Uniform(0.1, 10.0)});
    }
  }
  return edges;
}

/// About half the vertices of each side keep positive edges. Every other
/// left vertex and half of the other right ones get one NaN, zero or
/// negative edge and nothing else; the remaining right vertices appear in
/// no edge at all.
std::vector<Edge> IsolatedVertexEdges(int num_left, int num_right, Rng& rng) {
  const double junk[] = {std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0};
  std::vector<char> keep_left(static_cast<size_t>(num_left));
  std::vector<char> keep_right(static_cast<size_t>(num_right));
  for (char& keep : keep_left) keep = rng.Bernoulli(0.5);
  for (char& keep : keep_right) keep = rng.Bernoulli(0.5);
  std::vector<Edge> edges;
  for (int l = 0; l < num_left; ++l) {
    for (int r = 0; r < num_right; ++r) {
      if (keep_left[static_cast<size_t>(l)] &&
          keep_right[static_cast<size_t>(r)] && rng.Bernoulli(0.5)) {
        edges.push_back({l, r, rng.Uniform(0.1, 10.0)});
      }
    }
  }
  for (int l = 0; l < num_left; ++l) {
    if (keep_left[static_cast<size_t>(l)]) continue;
    edges.push_back({l, static_cast<int>(rng.UniformInt(0, num_right - 1)),
                     junk[rng.UniformInt(0, 2)]});
  }
  for (int r = 0; r < num_right; ++r) {
    if (keep_right[static_cast<size_t>(r)] || rng.Bernoulli(0.5)) continue;
    edges.push_back({static_cast<int>(rng.UniformInt(0, num_left - 1)), r,
                     junk[rng.UniformInt(0, 2)]});
  }
  return edges;
}

/// Each pair is a real positive-weight edge, no vertex is used twice, and
/// the pairs are in ascending-left order.
void ExpectValidMatchingOfRealEdges(const MatchResult& result, int num_left,
                                    int num_right,
                                    const std::vector<Edge>& edges) {
  std::set<std::pair<int, int>> real;
  for (const Edge& e : edges) {
    if (e.weight > 0.0) real.insert({e.left, e.right});
  }
  std::set<int> lefts, rights;
  for (auto [l, r] : result.pairs) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, num_left);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, num_right);
    EXPECT_TRUE(real.count({l, r})) << "(" << l << ", " << r << ") not an edge";
    EXPECT_TRUE(lefts.insert(l).second) << "duplicate left " << l;
    EXPECT_TRUE(rights.insert(r).second) << "duplicate right " << r;
  }
  EXPECT_TRUE(std::is_sorted(result.pairs.begin(), result.pairs.end()));
}

void ExpectBitwiseEqual(const MatchResult& got, const MatchResult& want) {
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.total_weight, want.total_weight);  // Bitwise, not NEAR.
}

struct Shape {
  int num_left;
  int num_right;
  int trials;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.num_left << "x" << shape.num_right;
}

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  return std::to_string(info.param.num_left) + "x" +
         std::to_string(info.param.num_right);
}

class RectangularParitySweep : public ::testing::TestWithParam<Shape> {};

TEST_P(RectangularParitySweep, ContinuousWeightsMatchOracleBitwise) {
  // Dense random edges, then two inputs whose whole rows and columns have
  // no positive edge, so the solver drops them before it builds the matrix.
  const Shape shape = GetParam();
  Rng rng(static_cast<uint64_t>(1000 * shape.num_left + shape.num_right));
  for (int trial = 0; trial < shape.trials; ++trial) {
    for (const std::vector<Edge>& edges :
         {RandomEdges(shape.num_left, shape.num_right, 0.3, rng),
          CornerEdges(shape.num_left, shape.num_right, rng),
          IsolatedVertexEdges(shape.num_left, shape.num_right, rng)}) {
      const MatchResult got =
          MaxWeightMatching(shape.num_left, shape.num_right, edges);
      ExpectValidMatchingOfRealEdges(got, shape.num_left, shape.num_right,
                                     edges);
      ExpectBitwiseEqual(got, SquarePaddedMaxWeightMatching(
                                  shape.num_left, shape.num_right, edges));
    }
  }
}

TEST_P(RectangularParitySweep, TieHeavyWeightsMatchOracleTotal) {
  // Weights from {1, 2, 3}: many optima, so the chosen pairs may differ
  // from the oracle's, but the result must be a valid matching of real
  // edges with the same (exactly representable) total.
  const Shape shape = GetParam();
  Rng rng(static_cast<uint64_t>(7 * shape.num_left + shape.num_right));
  for (int trial = 0; trial < shape.trials; ++trial) {
    std::vector<Edge> edges;
    for (int l = 0; l < shape.num_left; ++l) {
      for (int r = 0; r < shape.num_right; ++r) {
        if (rng.Bernoulli(0.3)) {
          edges.push_back({l, r, static_cast<double>(rng.UniformInt(1, 3))});
        }
      }
    }
    const MatchResult got =
        MaxWeightMatching(shape.num_left, shape.num_right, edges);
    ExpectValidMatchingOfRealEdges(got, shape.num_left, shape.num_right,
                                   edges);
    EXPECT_EQ(got.total_weight,
              SquarePaddedMaxWeightMatching(shape.num_left, shape.num_right,
                                            edges)
                  .total_weight);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RectangularParitySweep,
    ::testing::Values(Shape{500, 10, 1}, Shape{10, 500, 1},
                      Shape{200, 40, 2}, Shape{40, 200, 2}, Shape{1, 60, 10},
                      Shape{60, 1, 10}, Shape{30, 30, 5}, Shape{7, 3, 20},
                      Shape{3, 7, 20}),
    ShapeName);

TEST(RectangularMatchingTest, DuplicateEdgesKeepMaxLikeOracle) {
  // Every edge repeated with a lighter and a heavier copy, in both
  // orientations of the rectangle.
  Rng rng(99);
  for (auto [num_left, num_right] :
       {std::pair{40, 8}, std::pair{8, 40}, std::pair{12, 12}}) {
    std::vector<Edge> edges = RandomEdges(num_left, num_right, 0.4, rng);
    const size_t base = edges.size();
    for (size_t i = 0; i < base; ++i) {
      Edge lighter = edges[i];
      lighter.weight *= 0.5;
      Edge heavier = edges[i];
      heavier.weight += rng.Uniform(0.0, 3.0);
      edges.push_back(lighter);
      edges.push_back(heavier);
    }
    ExpectBitwiseEqual(MaxWeightMatching(num_left, num_right, edges),
                       SquarePaddedMaxWeightMatching(num_left, num_right,
                                                     edges));
  }
}

TEST(RectangularMatchingTest, NanAndNonPositiveEdgesIgnoredLikeOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(17);
  for (auto [num_left, num_right] :
       {std::pair{30, 6}, std::pair{6, 30}, std::pair{9, 9}}) {
    const std::vector<Edge> positive =
        RandomEdges(num_left, num_right, 0.3, rng);
    // Interleave NaN, zero and negative edges, some on cells that also hold
    // a positive edge (before and after it) and some on otherwise empty
    // cells.
    std::vector<Edge> noisy;
    for (const Edge& e : positive) {
      noisy.push_back({e.left, e.right, nan});
      noisy.push_back(e);
      noisy.push_back({e.left, e.right, -e.weight});
    }
    for (int l = 0; l < num_left; ++l) {
      noisy.push_back({l, (l * 5) % num_right, nan});
      noisy.push_back({l, (l * 3) % num_right, 0.0});
      noisy.push_back({l, (l * 7) % num_right, -1.0});
    }
    const MatchResult got = MaxWeightMatching(num_left, num_right, noisy);
    ExpectBitwiseEqual(got,
                       SquarePaddedMaxWeightMatching(num_left, num_right,
                                                     noisy));
    ExpectBitwiseEqual(got, MaxWeightMatching(num_left, num_right, positive));
    ExpectValidMatchingOfRealEdges(got, num_left, num_right, positive);
  }
  // Only NaN and non-positive edges: nothing to match, like the oracle.
  const std::vector<Edge> junk = {{0, 0, nan}, {1, 2, 0.0}, {3, 1, -2.0}};
  EXPECT_TRUE(MaxWeightMatching(4, 3, junk).pairs.empty());
  EXPECT_TRUE(SquarePaddedMaxWeightMatching(4, 3, junk).pairs.empty());
}

TEST(RectangularMatchingTest, ScratchReuseAcrossTransposedAndNot) {
  // One scratch alternating between transposed (left > right) and
  // non-transposed solves of different sizes: stale rows/cols of the
  // previous orientation must never leak into the next solve.
  Rng rng(2024);
  MatchingScratch scratch;
  const std::pair<int, int> shapes[] = {{60, 5},  {5, 60}, {3, 40}, {40, 3},
                                        {12, 12}, {50, 9}, {2, 2},  {9, 50}};
  for (int round = 0; round < 2; ++round) {
    for (auto [num_left, num_right] : shapes) {
      const std::vector<Edge> edges =
          RandomEdges(num_left, num_right, 0.35, rng);
      const MatchResult fresh = MaxWeightMatching(num_left, num_right, edges);
      ExpectBitwiseEqual(
          MaxWeightMatching(num_left, num_right, edges, &scratch), fresh);
      ExpectBitwiseEqual(
          fresh, SquarePaddedMaxWeightMatching(num_left, num_right, edges));
    }
  }
}

TEST(MatchingCellsTest, CompactedSolveCountsKeptRowsTimesCols) {
  // The deterministic work counter of the fig-7 baseline: a solve counts
  // rows x cols of the compacted matrix. At density 0.2 about a tenth of
  // the 500 side has no edge, so a 500 x 10 solve counts fewer than the
  // 10 x 500 = 5,000 cells of an uncompacted one (and far fewer than the
  // 250,000 of square padding).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cells = registry.GetCounter("matching.cells");
  obs::Counter& solves = registry.GetCounter("matching.solves");
  Rng rng(5);
  struct Case {
    int num_left;
    int num_right;
    int64_t cells;
  };
  for (const Case& c : {Case{500, 10, 4350}, Case{10, 500, 4490}}) {
    const std::vector<Edge> edges =
        RandomEdges(c.num_left, c.num_right, 0.2, rng);
    const int64_t cells_before = cells.value();
    const int64_t solves_before = solves.value();
    (void)MaxWeightMatching(c.num_left, c.num_right, edges);
    EXPECT_EQ(cells.value() - cells_before, c.cells);
    EXPECT_EQ(solves.value() - solves_before, 1);
  }
  // Every positive edge inside a 3 x 2 corner: exactly 6 cells, in both
  // orientations. Vertices outside it whose only edges are NaN, zero or
  // negative stay out of the matrix.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto [num_left, num_right] : {std::pair{500, 10}, std::pair{10, 500}}) {
    std::vector<Edge> edges = CornerEdges(num_left, num_right, rng);
    edges.push_back({0, 0, nan});
    edges.push_back({1, 1, 0.0});
    edges.push_back({2, 0, -1.0});
    const int64_t cells_before = cells.value();
    (void)MaxWeightMatching(num_left, num_right, edges);
    EXPECT_EQ(cells.value() - cells_before, 6);
  }
  // Solves that build no matrix count nothing.
  const int64_t cells_before = cells.value();
  const int64_t solves_before = solves.value();
  (void)MaxWeightMatching(0, 10, {});
  (void)MaxWeightMatching(8, 3, {{0, 0, 0.0}, {7, 2, -1.0}});
  EXPECT_EQ(cells.value(), cells_before);
  EXPECT_EQ(solves.value(), solves_before);
}

}  // namespace
}  // namespace tamp::matching
