#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace tamp::matching {

/// A weighted edge of the assignment bipartite graph. In the TAMP setting
/// the left side is tasks, the right side is workers, and the weight is the
/// reciprocal of the (expected) detour, so maximizing total weight prefers
/// short detours (Alg. 4 lines 9/16/32).
struct Edge {
  int left = 0;
  int right = 0;
  double weight = 0.0;  // Must be positive; non-positive edges are dropped.
};

/// Result of a matching: the chosen (left, right) pairs and their summed
/// edge weight.
struct MatchResult {
  std::vector<std::pair<int, int>> pairs;
  double total_weight = 0.0;
};

/// Result of a minimum-cost perfect assignment on a dense cost matrix.
struct AssignmentResult {
  /// col_of_row[r] is the column assigned to row r.
  std::vector<int> col_of_row;
  double total_cost = 0.0;
};

/// Reusable working set for the matchers below. Hot callers that solve
/// many matchings per batch (PPI's stage-2 epsilon batches) keep one of
/// these across calls so the O(n^2) potentials/matrix buffers are allocated
/// once and recycled; results are identical with or without a scratch. Not
/// thread-safe: one scratch per calling thread.
struct MatchingScratch {
  // MinCostAssignment working vectors.
  std::vector<double> u, v, minv;
  std::vector<std::size_t> p, way;
  std::vector<char> used;
  // MaxWeightMatching's compaction: original -> dense id (-1 when the
  // vertex has no positive edge) and dense id -> original, per side.
  std::vector<int> left_id, right_id, left_of, right_of;
  // MaxWeightMatching rows x cols weight/cost matrices (rows = the smaller
  // compacted side of the bipartite graph).
  std::vector<std::vector<double>> weight;
  std::vector<std::vector<double>> cost;
};

/// Minimum-cost perfect assignment of every row to a distinct column via
/// the Kuhn-Munkres potentials/shortest-augmenting-path algorithm, O(r^2 c).
/// Requires a rectangular matrix with rows() <= cols() and finite costs.
/// A 0-row matrix is a degenerate no-op: the empty result is returned
/// without touching `scratch`.
/// This is the computational core shared by MaxWeightMatching and the exact
/// 2-D Wasserstein distance. `scratch` may be null (per-call buffers).
AssignmentResult MinCostAssignment(const std::vector<std::vector<double>>& cost,
                                   MatchingScratch* scratch = nullptr);

/// Maximum-weight bipartite matching via the Kuhn-Munkres algorithm
/// ([35], [36] in the paper) with potentials and shortest augmenting paths.
/// Vertices without a positive-weight edge are dropped first (a monotone
/// relabel, so ascending order survives); the kept l' left and r' right
/// vertices are solved on the min(l', r') x max(l', r') matrix, O(r^2 c).
/// Vertices may stay unmatched: only pairs connected by a real
/// (positive-weight) input edge are reported, in ascending-left order, with
/// total_weight summed in that order.
///
/// `num_left`/`num_right` bound the vertex ids appearing in `edges`.
/// Duplicate edges keep the maximum weight; NaN-weight edges are ignored.
/// Counts matching.solves and matching.cells (rows x cols of the compacted
/// matrix) per matrix built. `scratch` may be null.
MatchResult MaxWeightMatching(int num_left, int num_right,
                              const std::vector<Edge>& edges,
                              MatchingScratch* scratch = nullptr);

}  // namespace tamp::matching
