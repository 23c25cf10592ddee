#include "assign/sharding.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/km_assigner.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/workload.h"
#include "matching/hungarian.h"

namespace tamp::assign {
namespace {

CandidateWorker MakeWorker(int id, std::vector<geo::TimedPoint> predicted,
                           geo::Point current, double detour_km, double speed,
                           double mr) {
  CandidateWorker w;
  w.id = id;
  w.predicted = std::move(predicted);
  w.current_location = current;
  w.detour_budget_km = detour_km;
  w.speed_kmpm = speed;
  w.matching_rate = mr;
  return w;
}

/// A candidate table holding exactly the given (task, worker) rows.
std::vector<std::vector<TaskCandidate>> TableFromRows(
    int num_tasks, const std::vector<std::pair<int, int>>& rows) {
  std::vector<std::vector<TaskCandidate>> table(
      static_cast<size_t>(num_tasks));
  for (auto [t, w] : rows) {
    TaskCandidate tc;
    tc.worker = w;
    tc.stage3_feasible = true;
    table[static_cast<size_t>(t)].push_back(tc);
  }
  for (auto& row : table) {
    std::sort(row.begin(), row.end(),
              [](const TaskCandidate& a, const TaskCandidate& b) {
                return a.worker < b.worker;
              });
  }
  return table;
}

TEST(ShardPlanTest, ComponentsMembershipAndCountersOnHandBuiltTable) {
  // t0-w0, t0-w1, t1-w1 form one component; t2-w3 a second; t3 has no rows
  // and w2/w4 are never referenced, so all three stay unsharded.
  auto table = TableFromRows(4, {{0, 0}, {0, 1}, {1, 1}, {2, 3}});

  obs::Counter& count_counter =
      obs::MetricsRegistry::Global().GetCounter("assign.shard_count");
  const int64_t count_before = count_counter.value();
  ShardPlan plan = BuildShardPlan(table, /*num_workers=*/5);
  EXPECT_EQ(count_counter.value() - count_before, 2);

  ASSERT_EQ(plan.shards.size(), 2u);
  // LPT: the 2-task x 2-worker component costs min^2 * max = 2*2*2 = 8,
  // the 1 x 1 one costs 1.
  EXPECT_EQ(plan.shards[0].tasks, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.shards[0].workers, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.shards[0].rows, 3);
  EXPECT_EQ(plan.shards[0].cost, 8);
  EXPECT_EQ(plan.shards[1].tasks, (std::vector<int>{2}));
  EXPECT_EQ(plan.shards[1].workers, (std::vector<int>{3}));
  EXPECT_EQ(plan.shards[1].rows, 1);
  EXPECT_EQ(plan.shards[1].cost, 1);
  EXPECT_EQ(plan.shard_of_task, (std::vector<int>{0, 0, 1, -1}));
  EXPECT_EQ(plan.shard_of_worker, (std::vector<int>{0, 0, -1, 1, -1}));
  EXPECT_EQ(plan.total_rows, 4);
  EXPECT_EQ(plan.max_rows, 3);
}

TEST(ShardPlanTest, LptOrdersShardsByCostDescending) {
  // First-appearing component is the cheap one; LPT must still put the
  // expensive one first.
  auto table =
      TableFromRows(4, {{0, 0}, {1, 1}, {1, 2}, {2, 1}, {3, 2}});
  ShardPlan plan = BuildShardPlan(table, /*num_workers=*/4);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_GT(plan.shards[0].cost, plan.shards[1].cost);
  EXPECT_EQ(plan.shards[0].tasks, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(plan.shards[1].tasks, (std::vector<int>{0}));
  EXPECT_EQ(plan.shard_of_task, (std::vector<int>{1, 0, 0, 0}));
}

void ExpectSameMatch(const matching::MatchResult& a,
                     const matching::MatchResult& b) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i], b.pairs[i]) << "pair " << i;
  }
  EXPECT_EQ(a.total_weight, b.total_weight);  // Bitwise, not approximate.
}

TEST(ShardedMatchingTest, BruteForceRandomGraphParityAtEveryThreadCount) {
  // The acceptance property: on random candidate graphs the sharded solve
  // is bitwise-equal (pairs and total) to the global KM, at 1/2/4/8
  // threads. Duplicate edges (max wins) and non-positive edges (dropped)
  // are sprinkled in because the global matcher handles both.
  tamp::Rng rng(808);
  for (int trial = 0; trial < 25; ++trial) {
    const int num_tasks = 1 + static_cast<int>(rng.UniformInt(0, 11));
    const int num_workers = 1 + static_cast<int>(rng.UniformInt(0, 11));
    const double density = rng.Uniform(0.05, 0.4);
    std::vector<matching::Edge> edges;
    std::vector<std::pair<int, int>> rows;
    for (int t = 0; t < num_tasks; ++t) {
      for (int w = 0; w < num_workers; ++w) {
        if (!rng.Bernoulli(density)) continue;
        edges.push_back({t, w, rng.Uniform(0.1, 5.0)});
        rows.emplace_back(t, w);
        if (rng.Bernoulli(0.1)) {  // Duplicate: the max must win.
          edges.push_back({t, w, rng.Uniform(0.1, 5.0)});
        }
      }
    }
    if (rng.Bernoulli(0.5) && !rows.empty()) {
      // A non-positive edge: both solvers drop it (no table row needed).
      edges.push_back({rows[0].first, rows[0].second, 0.0});
    }
    auto table = TableFromRows(num_tasks, rows);
    ShardPlan plan = BuildShardPlan(table, num_workers);

    matching::MatchResult global =
        matching::MaxWeightMatching(num_tasks, num_workers, edges);
    for (int threads : {1, 2, 4, 8}) {
      SetParallelThreadCount(threads);
      matching::MatchResult sharded = ShardedMaxWeightMatching(
          num_tasks, num_workers, edges, plan);
      ExpectSameMatch(global, sharded);
    }
    SetParallelThreadCount(0);
  }
}

TEST(ShardedMatchingTest, DegenerateInputsReturnEmptyWithoutSolving) {
  // Empty everything.
  ShardPlan empty_plan = BuildShardPlan({}, /*num_workers=*/0);
  EXPECT_TRUE(empty_plan.shards.empty());
  matching::MatchResult r = ShardedMaxWeightMatching(0, 0, {}, empty_plan);
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_EQ(r.total_weight, 0.0);

  // Rows exist but every edge weight is non-positive: all shards end up
  // edgeless and the result is empty, exactly like the global matcher.
  auto table = TableFromRows(2, {{0, 0}, {1, 1}});
  ShardPlan plan = BuildShardPlan(table, /*num_workers=*/2);
  ASSERT_EQ(plan.shards.size(), 2u);
  std::vector<matching::Edge> filtered = {{0, 0, 0.0}, {1, 1, -1.0}};
  r = ShardedMaxWeightMatching(2, 2, filtered, plan);
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_EQ(r.total_weight, 0.0);

  // 1xN: one task, several workers — a single-shard matching.
  auto one_row = TableFromRows(1, {{0, 0}, {0, 1}, {0, 2}});
  ShardPlan one_plan = BuildShardPlan(one_row, /*num_workers=*/3);
  std::vector<matching::Edge> one_edges = {
      {0, 0, 1.0}, {0, 1, 3.0}, {0, 2, 2.0}};
  matching::MatchResult one =
      ShardedMaxWeightMatching(1, 3, one_edges, one_plan);
  matching::MatchResult one_global = matching::MaxWeightMatching(1, 3,
                                                                 one_edges);
  ExpectSameMatch(one_global, one);
  ASSERT_EQ(one.pairs.size(), 1u);
  EXPECT_EQ(one.pairs[0], (std::pair<int, int>{0, 1}));
}


// ---------------------------------------------------------------------------
// Brute-force oracle: exhaustive enumeration on instances up to 7 x 7.
// ---------------------------------------------------------------------------

/// Effective weight of every (left, right) pair: the maximum over duplicate
/// edges, 0 when the pair has no edge. Non-positive edges are not edges.
std::vector<std::vector<double>> EffectiveWeights(
    int num_left, int num_right, const std::vector<matching::Edge>& edges) {
  std::vector<std::vector<double>> weight(
      static_cast<size_t>(num_left),
      std::vector<double>(static_cast<size_t>(num_right), 0.0));
  for (const matching::Edge& e : edges) {
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

/// The matching is valid (each vertex at most once), reports only real
/// positive-weight edges, sums to its own total_weight, and reaches the
/// enumerated optimum.
void ExpectOptimalMatching(const matching::MatchResult& result,
                           const std::vector<std::vector<double>>& weight,
                           int num_right, double optimum,
                           const char* solver) {
  std::vector<char> left_used(weight.size(), 0);
  std::vector<char> right_used(static_cast<size_t>(num_right), 0);
  double sum = 0.0;
  for (auto [l, r] : result.pairs) {
    ASSERT_GE(l, 0) << solver;
    ASSERT_LT(static_cast<size_t>(l), weight.size()) << solver;
    ASSERT_GE(r, 0) << solver;
    ASSERT_LT(r, num_right) << solver;
    EXPECT_FALSE(left_used[static_cast<size_t>(l)]) << solver << " left " << l;
    EXPECT_FALSE(right_used[static_cast<size_t>(r)])
        << solver << " right " << r;
    left_used[static_cast<size_t>(l)] = 1;
    right_used[static_cast<size_t>(r)] = 1;
    const double w = weight[static_cast<size_t>(l)][static_cast<size_t>(r)];
    EXPECT_GT(w, 0.0) << solver << " reported a non-edge (" << l << ", " << r
                      << ")";
    sum += w;
  }
  EXPECT_NEAR(result.total_weight, sum, 1e-9) << solver;
  EXPECT_NEAR(result.total_weight, optimum, 1e-9) << solver;
}

struct OracleInstance {
  int num_left = 0;
  int num_right = 0;
  std::vector<matching::Edge> edges;
  /// Candidate-table rows: every positive edge's pair, plus rows that carry
  /// no edge (KM and PPI solve edge subsets of the table).
  std::vector<std::pair<int, int>> rows;
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
      inst.rows.emplace_back(l, r);
      if (filtered) {
        inst.edges.push_back({l, r, rng.Bernoulli(0.5) ? 0.0 : -1.0});
        continue;
      }
      if (rng.Bernoulli(0.1)) continue;  // A table row without an edge.
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

void ExpectBothSolversOptimal(const OracleInstance& inst) {
  const auto weight =
      EffectiveWeights(inst.num_left, inst.num_right, inst.edges);
  std::vector<char> right_used(static_cast<size_t>(inst.num_right), 0);
  const double optimum = BruteForceOptimum(weight, 0, right_used);
  ExpectOptimalMatching(
      matching::MaxWeightMatching(inst.num_left, inst.num_right, inst.edges),
      weight, inst.num_right, optimum, "MaxWeightMatching");
  const ShardPlan plan =
      BuildShardPlan(TableFromRows(inst.num_left, inst.rows), inst.num_right);
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    ExpectOptimalMatching(ShardedMaxWeightMatching(inst.num_left,
                                                   inst.num_right, inst.edges,
                                                   plan),
                          weight, inst.num_right, optimum,
                          "ShardedMaxWeightMatching");
  }
  SetParallelThreadCount(0);
}

TEST(BruteForceOracleTest, RandomInstancesUpToSevenBySeven) {
  tamp::Rng rng(2027);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_left = static_cast<int>(rng.UniformInt(1, 7));
    const int num_right = static_cast<int>(rng.UniformInt(1, 7));
    ExpectBothSolversOptimal(
        RandomOracleInstance(rng, num_left, num_right, /*tied=*/false));
  }
}

TEST(BruteForceOracleTest, TiedWeightsStillReachTheOptimum) {
  // Weights from {1, 2, 3}: many optimal matchings, so the sharded and
  // global solves may pick different pair sets. Both must still be valid
  // and reach the same optimal total.
  tamp::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_left = static_cast<int>(rng.UniformInt(1, 7));
    const int num_right = static_cast<int>(rng.UniformInt(1, 7));
    ExpectBothSolversOptimal(
        RandomOracleInstance(rng, num_left, num_right, /*tied=*/true));
  }
}

TEST(BruteForceOracleTest, TasksFarOutnumberWorkers) {
  // The surge shape: many pooled tasks against one or two free workers.
  tamp::Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_right = static_cast<int>(rng.UniformInt(1, 2));
    ExpectBothSolversOptimal(
        RandomOracleInstance(rng, 7, num_right, rng.Bernoulli(0.5)));
  }
}

TEST(BruteForceOracleTest, EmptySidesAndAllFilteredRows) {
  for (auto [num_left, num_right] :
       {std::pair{0, 0}, std::pair{0, 5}, std::pair{5, 0}}) {
    OracleInstance inst;
    inst.num_left = num_left;
    inst.num_right = num_right;
    ExpectBothSolversOptimal(inst);
  }
  // Every row present, every edge non-positive: the optimum is the empty
  // matching.
  OracleInstance filtered;
  filtered.num_left = 3;
  filtered.num_right = 3;
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) {
      filtered.rows.emplace_back(l, r);
      filtered.edges.push_back({l, r, (l + r) % 2 == 0 ? 0.0 : -2.5});
    }
  }
  ExpectBothSolversOptimal(filtered);
  EXPECT_TRUE(
      matching::MaxWeightMatching(3, 3, filtered.edges).pairs.empty());
}

// ---------------------------------------------------------------------------
// Workload-scale parity: ShardedMaxWeightMatching against MaxWeightMatching
// called directly, on the candidate tables of Porto and Gowalla batches.
// ---------------------------------------------------------------------------

/// Workers' platform-visible routines are synthesized from their real test
/// trajectories (sampled forward from `now`), so the batches have the
/// spatial structure of the paper's datasets without running the NN
/// forecaster. Each batch takes a different ~1/5 of the fleet offline, so
/// shard memberships change from batch to batch.
class ShardingPlanParityTest
    : public ::testing::TestWithParam<data::WorkloadKind> {
 protected:
  struct Batch {
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
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
      for (const SpatialTask& task : workload.task_stream) {
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

TEST_P(ShardingPlanParityTest, ShardedAndGlobalMatchingBitIdentical) {
  constexpr double kRadius = 1.0, kFloor = 1e-3;
  std::vector<Batch> batches = BuildBatches(GetParam());
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    bool any = false;
    for (const Batch& batch : batches) {
      const int num_tasks = static_cast<int>(batch.tasks.size());
      const int num_workers = static_cast<int>(batch.workers.size());
      const CandidateIndex index(batch.workers);
      const auto table = GenerateCandidates(batch.tasks, batch.workers,
                                            kRadius, batch.now, &index);
      const ShardPlan plan = BuildShardPlan(table, num_workers);
      // KM's edge set (stage-3 rows, 1/dis^min) and PPI stage 1/2's
      // (Theorem-2 rows, 1/min B): two different subsets of the table.
      std::vector<matching::Edge> km_edges, b_edges;
      for (size_t t = 0; t < table.size(); ++t) {
        for (const TaskCandidate& tc : table[t]) {
          if (tc.stage3_feasible) {
            km_edges.push_back({static_cast<int>(t), tc.worker,
                                1.0 / (tc.min_dis + kFloor)});
          }
          if (tc.b_count > 0) {
            b_edges.push_back({static_cast<int>(t), tc.worker,
                               1.0 / (tc.min_b + kFloor)});
          }
        }
      }
      for (const auto* edges : {&km_edges, &b_edges}) {
        ExpectSameMatch(
            matching::MaxWeightMatching(num_tasks, num_workers, *edges),
            ShardedMaxWeightMatching(num_tasks, num_workers, *edges, plan));
      }
      // KmAssign is exactly this sharded solve over km_edges.
      const matching::MatchResult global =
          matching::MaxWeightMatching(num_tasks, num_workers, km_edges);
      const AssignmentPlan km =
          KmAssign(batch.tasks, batch.workers, batch.now, kRadius, kFloor);
      ASSERT_EQ(km.pairs.size(), global.pairs.size());
      for (size_t i = 0; i < km.pairs.size(); ++i) {
        EXPECT_EQ(km.pairs[i].task_index, global.pairs[i].first);
        EXPECT_EQ(km.pairs[i].worker_index, global.pairs[i].second);
      }
      any = any || !global.pairs.empty();
    }
    EXPECT_TRUE(any);
  }
  SetParallelThreadCount(0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ShardingPlanParityTest,
                         ::testing::Values(
                             data::WorkloadKind::kPortoDidi,
                             data::WorkloadKind::kGowallaFoursquare),
                         [](const auto& info) {
                           return info.param == data::WorkloadKind::kPortoDidi
                                      ? "Porto"
                                      : "Gowalla";
                         });

}  // namespace
}  // namespace tamp::assign
