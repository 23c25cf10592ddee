// MaxWeightMatching against its two oracles: exhaustive enumeration on
// instances up to 7 x 7, and the square-padded solve (which never drops an
// edgeless vertex) on the edge sets that KM and PPI build from Porto and
// Gowalla candidate tables.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/km_assigner.h"
#include "assign/ppi.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/workload.h"
#include "matching/hungarian.h"
#include "matching_square_oracle.h"

namespace tamp::matching {
namespace {

using testing::SquarePaddedMaxWeightMatching;

// ---------------------------------------------------------------------------
// Brute-force oracle: exhaustive enumeration on instances up to 7 x 7.
// ---------------------------------------------------------------------------

/// Effective weight of every (left, right) pair: the maximum over duplicate
/// edges, 0 when the pair has no edge. Non-positive edges are not edges.
std::vector<std::vector<double>> EffectiveWeights(
    int num_left, int num_right, const std::vector<Edge>& edges) {
  std::vector<std::vector<double>> weight(
      static_cast<size_t>(num_left),
      std::vector<double>(static_cast<size_t>(num_right), 0.0));
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    double& cell =
        weight[static_cast<size_t>(e.left)][static_cast<size_t>(e.right)];
    cell = std::max(cell, e.weight);
  }
  return weight;
}

/// The optimum total weight over every matching, by enumerating each left
/// vertex's choice (unmatched, or any free right vertex it has an edge to).
double BruteForceOptimum(const std::vector<std::vector<double>>& weight,
                         size_t left, std::vector<char>& right_used) {
  if (left == weight.size()) return 0.0;
  double best = BruteForceOptimum(weight, left + 1, right_used);
  for (size_t r = 0; r < right_used.size(); ++r) {
    if (right_used[r] || weight[left][r] <= 0.0) continue;
    right_used[r] = 1;
    best = std::max(best, weight[left][r] +
                              BruteForceOptimum(weight, left + 1, right_used));
    right_used[r] = 0;
  }
  return best;
}

struct OracleInstance {
  int num_left = 0;
  int num_right = 0;
  std::vector<Edge> edges;
};

/// A random instance. `tied` draws weights from {1, 2, 3} so optima are
/// rarely unique; otherwise weights are continuous. Some left vertices get
/// only non-positive edges (all-filtered rows), and some pairs carry
/// duplicate edges.
OracleInstance RandomOracleInstance(tamp::Rng& rng, int num_left,
                                    int num_right, bool tied) {
  OracleInstance inst;
  inst.num_left = num_left;
  inst.num_right = num_right;
  const double density = rng.Uniform(0.2, 0.9);
  for (int l = 0; l < num_left; ++l) {
    const bool filtered = rng.Bernoulli(0.15);
    for (int r = 0; r < num_right; ++r) {
      if (!rng.Bernoulli(density)) continue;
      if (filtered) {
        inst.edges.push_back({l, r, rng.Bernoulli(0.5) ? 0.0 : -1.0});
        continue;
      }
      if (rng.Bernoulli(0.1)) continue;  // A candidate pair without an edge.
      const double w = tied ? static_cast<double>(rng.UniformInt(1, 3))
                            : rng.Uniform(0.1, 5.0);
      inst.edges.push_back({l, r, w});
      if (rng.Bernoulli(0.1)) {
        inst.edges.push_back(
            {l, r, tied ? static_cast<double>(rng.UniformInt(1, 3))
                        : rng.Uniform(0.1, 5.0)});
      }
    }
  }
  return inst;
}

/// The matching is valid (each vertex at most once), reports only real
/// positive-weight edges, sums to its own total_weight, and reaches the
/// enumerated optimum.
void ExpectOptimal(const OracleInstance& inst) {
  const auto weight =
      EffectiveWeights(inst.num_left, inst.num_right, inst.edges);
  std::vector<char> right_used(static_cast<size_t>(inst.num_right), 0);
  const double optimum = BruteForceOptimum(weight, 0, right_used);
  const MatchResult result =
      MaxWeightMatching(inst.num_left, inst.num_right, inst.edges);

  std::vector<char> left_used(weight.size(), 0);
  right_used.assign(right_used.size(), 0);
  double sum = 0.0;
  for (auto [l, r] : result.pairs) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, inst.num_left);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, inst.num_right);
    EXPECT_FALSE(left_used[static_cast<size_t>(l)]) << "left " << l;
    EXPECT_FALSE(right_used[static_cast<size_t>(r)]) << "right " << r;
    left_used[static_cast<size_t>(l)] = 1;
    right_used[static_cast<size_t>(r)] = 1;
    const double w = weight[static_cast<size_t>(l)][static_cast<size_t>(r)];
    EXPECT_GT(w, 0.0) << "reported a non-edge (" << l << ", " << r << ")";
    sum += w;
  }
  EXPECT_TRUE(std::is_sorted(result.pairs.begin(), result.pairs.end()));
  EXPECT_NEAR(result.total_weight, sum, 1e-9);
  EXPECT_NEAR(result.total_weight, optimum, 1e-9);
}

TEST(BruteForceOracleTest, RandomInstancesUpToSevenBySeven) {
  tamp::Rng rng(2027);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_left = static_cast<int>(rng.UniformInt(1, 7));
    const int num_right = static_cast<int>(rng.UniformInt(1, 7));
    ExpectOptimal(
        RandomOracleInstance(rng, num_left, num_right, /*tied=*/false));
  }
}

TEST(BruteForceOracleTest, TiedWeightsStillReachTheOptimum) {
  // Weights from {1, 2, 3}: many optimal matchings, so the pair set is not
  // pinned, but it must be valid and reach the enumerated optimum.
  tamp::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_left = static_cast<int>(rng.UniformInt(1, 7));
    const int num_right = static_cast<int>(rng.UniformInt(1, 7));
    ExpectOptimal(
        RandomOracleInstance(rng, num_left, num_right, /*tied=*/true));
  }
}

TEST(BruteForceOracleTest, TasksFarOutnumberWorkers) {
  // The surge shape: many pooled tasks against one or two free workers.
  tamp::Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_right = static_cast<int>(rng.UniformInt(1, 2));
    ExpectOptimal(RandomOracleInstance(rng, 7, num_right, rng.Bernoulli(0.5)));
  }
}

TEST(BruteForceOracleTest, EmptySidesAndAllFilteredRows) {
  for (auto [num_left, num_right] :
       {std::pair{0, 0}, std::pair{0, 5}, std::pair{5, 0}}) {
    OracleInstance inst;
    inst.num_left = num_left;
    inst.num_right = num_right;
    ExpectOptimal(inst);
  }
  // Every pair present, every edge non-positive: the optimum is the empty
  // matching.
  OracleInstance filtered;
  filtered.num_left = 3;
  filtered.num_right = 3;
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) {
      filtered.edges.push_back({l, r, (l + r) % 2 == 0 ? 0.0 : -2.5});
    }
  }
  ExpectOptimal(filtered);
  EXPECT_TRUE(MaxWeightMatching(3, 3, filtered.edges).pairs.empty());
}

// ---------------------------------------------------------------------------
// Workload-scale parity: the compacted MaxWeightMatching against the
// square-padded oracle, on the edge sets KM and PPI build from the candidate
// tables of Porto and Gowalla batches.
// ---------------------------------------------------------------------------

void ExpectBitwiseEqual(const MatchResult& got, const MatchResult& want) {
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.total_weight, want.total_weight);  // Bitwise, not NEAR.
}

assign::CandidateWorker MakeWorker(int id,
                                   std::vector<geo::TimedPoint> predicted,
                                   geo::Point current, double detour_km,
                                   double speed, double mr) {
  assign::CandidateWorker w;
  w.id = id;
  w.predicted = std::move(predicted);
  w.current_location = current;
  w.detour_budget_km = detour_km;
  w.speed_kmpm = speed;
  w.matching_rate = mr;
  return w;
}

/// Workers' platform-visible routines are synthesized from their real test
/// trajectories (sampled forward from `now`), so the batches have the
/// spatial structure of the paper's datasets without running the NN
/// forecaster. Each batch takes a different ~1/5 of the fleet offline, so
/// the set of edgeless vertices changes from batch to batch.
class WorkloadTableParityTest
    : public ::testing::TestWithParam<data::WorkloadKind> {
 protected:
  struct Batch {
    std::vector<assign::SpatialTask> tasks;
    std::vector<assign::CandidateWorker> workers;
    double now = 0.0;
  };

  static std::vector<Batch> BuildBatches(data::WorkloadKind kind) {
    data::WorkloadConfig config;
    config.kind = kind;
    config.num_workers = 50;
    config.num_train_days = 1;
    config.num_tasks = 300;
    config.num_historical_tasks = 50;
    config.seed = 4242;
    data::Workload workload = data::GenerateWorkload(config);

    const double start = workload.task_stream[workload.task_stream.size() / 2]
                             .release_time_min;
    std::vector<Batch> batches;
    for (int b = 0; b < 5; ++b) {
      Batch batch;
      batch.now = start + 2.0 * b;
      for (const assign::SpatialTask& task : workload.task_stream) {
        if (task.release_time_min <= batch.now &&
            task.deadline_min > batch.now) {
          batch.tasks.push_back(task);
        }
      }
      for (size_t w = 0; w < workload.workers.size(); ++w) {
        if ((static_cast<int>(w) + b) % 5 == 0) continue;
        const data::WorkerRecord& record = workload.workers[w];
        std::vector<geo::TimedPoint> pred;
        for (int s = 1; s <= 5; ++s) {
          const double t = batch.now + 10.0 * s;
          pred.push_back({record.test.PositionAt(t), t});
        }
        batch.workers.push_back(MakeWorker(
            record.id, std::move(pred), record.test.PositionAt(batch.now),
            record.detour_budget_km, record.speed_kmpm,
            0.2 + 0.6 * static_cast<double>(w) /
                      static_cast<double>(workload.workers.size())));
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  }
};

TEST_P(WorkloadTableParityTest, CompactedSolveMatchesSquareOracleBitwise) {
  constexpr double kRadius = 1.0, kFloor = 1e-3;
  const int epsilon = assign::PpiConfig{}.epsilon;
  obs::Counter& cells = obs::MetricsRegistry::Global().GetCounter(
      "matching.cells");
  std::vector<Batch> batches = BuildBatches(GetParam());
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    bool any = false;
    bool any_compacted = false;
    for (const Batch& batch : batches) {
      const int num_tasks = static_cast<int>(batch.tasks.size());
      const int num_workers = static_cast<int>(batch.workers.size());
      const assign::CandidateIndex index(batch.workers);
      const auto table = assign::GenerateCandidates(
          batch.tasks, batch.workers, kRadius, batch.now, &index);
      // KM's edge set (stage-3 rows, 1/dis^min), PPI's Theorem-2 B edge set
      // (1/min B), and the epsilon-sized stage-2 subsets of the pending B
      // edges in descending |B| * MR order.
      struct Scored {
        Edge edge;
        double score = 0.0;
      };
      std::vector<Edge> km_edges, b_edges;
      std::vector<Scored> pending;
      for (size_t t = 0; t < table.size(); ++t) {
        for (const assign::TaskCandidate& tc : table[t]) {
          const int task = static_cast<int>(t);
          if (tc.stage3_feasible) {
            km_edges.push_back({task, tc.worker, 1.0 / (tc.min_dis + kFloor)});
          }
          if (tc.b_count == 0) continue;
          const Edge b = {task, tc.worker, 1.0 / (tc.min_b + kFloor)};
          b_edges.push_back(b);
          const double score =
              static_cast<double>(tc.b_count) *
              batch.workers[static_cast<size_t>(tc.worker)].matching_rate;
          if (score < 1.0) pending.push_back({b, score});
        }
      }
      std::stable_sort(pending.begin(), pending.end(),
                       [](const Scored& a, const Scored& b) {
                         return a.score > b.score;
                       });
      std::vector<std::vector<Edge>> edge_sets = {km_edges, b_edges};
      for (size_t i = 0; i < pending.size(); ++i) {
        if (i % static_cast<size_t>(epsilon) == 0) edge_sets.emplace_back();
        edge_sets.back().push_back(pending[i].edge);
      }

      MatchingScratch scratch;
      for (const std::vector<Edge>& edges : edge_sets) {
        const int64_t cells_before = cells.value();
        const MatchResult got =
            MaxWeightMatching(num_tasks, num_workers, edges, &scratch);
        ExpectBitwiseEqual(got, SquarePaddedMaxWeightMatching(
                                    num_tasks, num_workers, edges));
        const int64_t solved = cells.value() - cells_before;
        any_compacted =
            any_compacted ||
            (solved > 0 && solved < static_cast<int64_t>(num_tasks) *
                                        static_cast<int64_t>(num_workers));
      }

      // KmAssign is exactly the direct solve over km_edges.
      const MatchResult global =
          MaxWeightMatching(num_tasks, num_workers, km_edges);
      const assign::AssignmentPlan km = assign::KmAssign(
          batch.tasks, batch.workers, batch.now, kRadius, kFloor);
      ASSERT_EQ(km.pairs.size(), global.pairs.size());
      for (size_t i = 0; i < km.pairs.size(); ++i) {
        EXPECT_EQ(km.pairs[i].task_index, global.pairs[i].first);
        EXPECT_EQ(km.pairs[i].worker_index, global.pairs[i].second);
      }
      any = any || !global.pairs.empty();
    }
    EXPECT_TRUE(any);
    EXPECT_TRUE(any_compacted);
  }
  SetParallelThreadCount(0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadTableParityTest,
                         ::testing::Values(
                             data::WorkloadKind::kPortoDidi,
                             data::WorkloadKind::kGowallaFoursquare),
                         [](const auto& info) {
                           return info.param == data::WorkloadKind::kPortoDidi
                                      ? "Porto"
                                      : "Gowalla";
                         });

}  // namespace
}  // namespace tamp::matching
