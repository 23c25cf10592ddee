#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "matching/hungarian.h"

namespace tamp::matching::testing {

/// Greedy descending-weight matching; used as a test oracle bound (the
/// greedy total is always <= the KM total).
inline MatchResult GreedyMatching(int num_left, int num_right,
                                  const std::vector<Edge>& edges) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  std::vector<Edge> sorted;
  sorted.reserve(edges.size());
  for (const Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    if (e.weight > 0.0) sorted.push_back(e);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Edge& a, const Edge& b) {
                     return a.weight > b.weight;
                   });
  std::vector<char> left_used(static_cast<size_t>(num_left), 0);
  std::vector<char> right_used(static_cast<size_t>(num_right), 0);
  MatchResult result;
  for (const Edge& e : sorted) {
    const size_t l = static_cast<size_t>(e.left);
    const size_t r = static_cast<size_t>(e.right);
    if (left_used[l] || right_used[r]) continue;
    left_used[l] = 1;
    right_used[r] = 1;
    result.pairs.emplace_back(e.left, e.right);
    result.total_weight += e.weight;
  }
  return result;
}

}  // namespace tamp::matching::testing
