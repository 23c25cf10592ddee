#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "matching/hungarian.h"

namespace tamp::matching::testing {

/// The square-padded Kuhn-Munkres maximum-weight matching: the whole
/// instance padded to an n x n matrix with n = max(num_left, num_right)
/// and solved in O(n^3). Kept as the test oracle of the rectangular
/// MaxWeightMatching, whose pairs and total_weight must be bitwise-equal to
/// it whenever the optimum is unique. Same contract: non-positive and NaN
/// edges are ignored, duplicates keep the maximum weight, pairs come out in
/// ascending-left order and total_weight is summed in that order.
inline MatchResult SquarePaddedMaxWeightMatching(
    int num_left, int num_right, const std::vector<Edge>& edges) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  MatchResult result;
  if (num_left == 0 || num_right == 0) return result;

  double max_weight = 0.0;
  for (const Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    max_weight = std::max(max_weight, e.weight);
  }
  if (max_weight <= 0.0) return result;  // No positive-weight edges.

  // Pad to a square weight matrix; absent edges have weight 0 (matching to
  // them is equivalent to staying unmatched and costs nothing).
  const size_t n = static_cast<size_t>(std::max(num_left, num_right));
  std::vector<std::vector<double>> weight(n, std::vector<double>(n, 0.0));
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    auto& cell = weight[static_cast<size_t>(e.left)][static_cast<size_t>(
        e.right)];
    cell = std::max(cell, e.weight);
  }
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) cost[i][j] = max_weight - weight[i][j];
  }
  const AssignmentResult assignment = MinCostAssignment(cost);

  for (size_t left = 0; left < static_cast<size_t>(num_left); ++left) {
    const int right = assignment.col_of_row[left];
    if (right < 0 || right >= num_right) continue;  // Padding.
    const double w = weight[left][static_cast<size_t>(right)];
    if (w <= 0.0) continue;  // Dummy (unmatched) edge.
    result.pairs.emplace_back(static_cast<int>(left), right);
    result.total_weight += w;
  }
  return result;
}

}  // namespace tamp::matching::testing
