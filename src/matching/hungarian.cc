#include "matching/hungarian.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/obs/metrics.h"

namespace tamp::matching {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

AssignmentResult MinCostAssignment(const std::vector<std::vector<double>>& cost,
                                   MatchingScratch* scratch) {
  const size_t n = cost.size();
  if (n == 0) return AssignmentResult{};  // Degenerate 0-row solve.
  const size_t m = cost[0].size();
  TAMP_CHECK_MSG(n <= m, "MinCostAssignment requires rows() <= cols()");
  for (const auto& row : cost) {
    TAMP_CHECK(row.size() == m);
    // Trust boundary: a NaN/Inf cost breaks the shortest-path potentials
    // silently (comparisons with NaN are all false), producing a plausible
    // but wrong assignment instead of a crash.
    for (double c : row) TAMP_CHECK_FINITE(c);
  }

  MatchingScratch local;
  MatchingScratch& s = scratch != nullptr ? *scratch : local;

  // Classic potentials formulation (1-indexed): p[j] is the row assigned to
  // column j; each outer iteration augments along a shortest path.
  // assign() both sizes and resets, so a reused scratch starts clean.
  std::vector<double>& u = s.u;
  std::vector<double>& v = s.v;
  std::vector<size_t>& p = s.p;
  std::vector<size_t>& way = s.way;
  u.assign(n + 1, 0.0);
  v.assign(m + 1, 0.0);
  p.assign(m + 1, 0);
  way.assign(m + 1, 0);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double>& minv = s.minv;
    std::vector<char>& used = s.used;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, 0);
    do {
      used[j0] = 1;
      size_t i0 = p[j0];
      size_t j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.col_of_row.assign(n, -1);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    result.col_of_row[p[j] - 1] = static_cast<int>(j - 1);
    result.total_cost += cost[p[j] - 1][j - 1];
  }
  return result;
}

MatchResult MaxWeightMatching(int num_left, int num_right,
                              const std::vector<Edge>& edges,
                              MatchingScratch* scratch) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& solves_counter =
      registry.GetCounter("matching.solves");
  static obs::Counter& cells_counter = registry.GetCounter("matching.cells");

  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  MatchResult result;
  if (num_left == 0 || num_right == 0) return result;

  // Validate and scan for the heaviest edge before touching any scratch:
  // an all-filtered (or empty) edge set leaves a reused scratch untouched.
  double max_weight = 0.0;
  for (const Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    max_weight = std::max(max_weight, e.weight);
  }
  if (max_weight <= 0.0) return result;  // No positive-weight edges.

  MatchingScratch local;
  MatchingScratch& s = scratch != nullptr ? *scratch : local;

  // Compaction: only vertices with a positive edge enter the matrix. Ids
  // are handed out in ascending original order, so the relabel is monotone
  // and ascending-left emission survives the map back. A dropped vertex
  // would get an all-zero row or column, which never yields a pair.
  const auto compact = [](int n, std::vector<int>& id_of,
                          std::vector<int>& vertex_of) {
    vertex_of.clear();
    for (int v = 0; v < n; ++v) {
      int& id = id_of[static_cast<size_t>(v)];
      if (id < 0) continue;
      id = static_cast<int>(vertex_of.size());
      vertex_of.push_back(v);
    }
  };
  s.left_id.assign(static_cast<size_t>(num_left), -1);
  s.right_id.assign(static_cast<size_t>(num_right), -1);
  for (const Edge& e : edges) {
    if (!(e.weight > 0.0)) continue;  // Non-positive or NaN: not an edge.
    s.left_id[static_cast<size_t>(e.left)] = 0;
    s.right_id[static_cast<size_t>(e.right)] = 0;
  }
  compact(num_left, s.left_id, s.left_of);
  compact(num_right, s.right_id, s.right_of);

  // Rows are the smaller compacted side and columns the larger, so the
  // solve is O(r^2 c). Absent edges have weight 0: with r <= c every row is
  // assigned, and a row assigned to an absent edge stays unmatched.
  const size_t kept_left = s.left_of.size();
  const size_t kept_right = s.right_of.size();
  const bool transposed = kept_left > kept_right;
  const size_t rows = transposed ? kept_right : kept_left;
  const size_t cols = transposed ? kept_left : kept_right;
  std::vector<std::vector<double>>& weight = s.weight;
  const auto cell = [&](int left, int right) -> double& {
    const size_t l = static_cast<size_t>(left);
    const size_t r = static_cast<size_t>(right);
    return transposed ? weight[r][l] : weight[l][r];
  };
  weight.resize(rows);
  for (auto& row : weight) row.assign(cols, 0.0);
  for (const Edge& e : edges) {
    if (!(e.weight > 0.0)) continue;
    double& w = cell(s.left_id[static_cast<size_t>(e.left)],
                     s.right_id[static_cast<size_t>(e.right)]);
    w = std::max(w, e.weight);
  }

  // Convert to a min-cost assignment: cost = max_weight - weight >= 0.
  // Every cell of the used rows x cols region is written exactly once;
  // resize() alone is safe here because rows kept from a larger previous
  // solve are fully overwritten before use (scratch-reuse parity is pinned
  // by matching_hungarian_test's shrink-then-grow case).
  std::vector<std::vector<double>>& cost = s.cost;
  cost.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    cost[i].resize(cols);
    for (size_t j = 0; j < cols; ++j) cost[i][j] = max_weight - weight[i][j];
  }
  solves_counter.Increment();
  cells_counter.Increment(static_cast<int64_t>(rows * cols));
  const AssignmentResult assignment = MinCostAssignment(cost, &s);

  for (size_t row = 0; row < rows; ++row) {
    const int col = assignment.col_of_row[row];
    if (weight[row][static_cast<size_t>(col)] <= 0.0) continue;  // Unmatched.
    const int r = static_cast<int>(row);
    result.pairs.emplace_back(transposed ? col : r, transposed ? r : col);
  }
  // Ascending-left emission and summation keep pairs and total bitwise
  // those of the square-padded test oracle when the optimum is unique.
  if (transposed) std::sort(result.pairs.begin(), result.pairs.end());
  for (auto& [l, r] : result.pairs) {
    result.total_weight += cell(l, r);
    l = s.left_of[static_cast<size_t>(l)];
    r = s.right_of[static_cast<size_t>(r)];
  }
  return result;
}

}  // namespace tamp::matching
