// The TAML wavefront (every leaf's picks in one parallel region per round)
// against the serial depth-first oracle in meta_taml_oracle.h, bit for bit:
// every node's theta, the TamlResult, the rng's next draw, the
// meta.iterations / meta.adapt_steps deltas and the final
// meta.avg_query_loss, for FOMAML and Reptile at 1 and 4 threads.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/task_tree.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "meta/meta_training.h"
#include "meta/taml.h"
#include "meta_taml_oracle.h"
#include "nn/encoder_decoder.h"

namespace tamp::meta {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

/// Task `id` drifts with velocity `vx`; `support` may be 0 (a task that
/// never contributes a pick).
LearningTask MakeTask(int id, double vx, int support, tamp::Rng& rng) {
  LearningTask task;
  task.worker_id = id;
  auto sample = [&]() {
    TrainingSample s;
    double x = rng.Uniform(0.2, 0.6), y = rng.Uniform(0.2, 0.6);
    for (int t = 0; t < 3; ++t) s.input.push_back({x + vx * t, y});
    s.target.push_back({x + vx * 3, y});
    s.target_km.push_back({(x + vx * 3) * 10.0, y * 10.0});
    return s;
  };
  for (int i = 0; i < support; ++i) task.support.push_back(sample());
  for (int i = 0; i < 3; ++i) task.query.push_back(sample());
  return task;
}

std::unique_ptr<cluster::TaskTreeNode> Node(
    std::vector<int> tasks,
    std::vector<std::unique_ptr<cluster::TaskTreeNode>> children = {}) {
  auto node = std::make_unique<cluster::TaskTreeNode>();
  node->tasks = std::move(tasks);
  for (auto& child : children) {
    child->parent = node.get();
    node->children.push_back(std::move(child));
  }
  return node;
}

template <typename... Children>
std::unique_ptr<cluster::TaskTreeNode> Inner(std::vector<int> tasks,
                                             Children... children) {
  std::vector<std::unique_ptr<cluster::TaskTreeNode>> list;
  (list.push_back(std::move(children)), ...);
  return Node(std::move(tasks), std::move(list));
}

/// Depth 3, leaves of 1 member and of more members than batch_size. Task
/// 8 has no support data, so at batch size 1 leaf {3, 8} contributes only
/// in some rounds; the last leaf's only task has none, so it never does.
/// The gauge must then come from the last round leaf {3, 8} contributed,
/// not from whichever leaf contributed last in the final round.
std::unique_ptr<cluster::TaskTreeNode> MixedTree() {
  return Inner({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
               Node({0}),
               Node({1, 2, 4, 5, 6, 7}),
               Inner({3, 8, 9, 10}, Node({9}),
                     Inner({3, 8, 10}, Node({10}), Node({3, 8}))),
               Node({11}));
}

/// A root that is itself a leaf: plain MAML over every task.
std::unique_ptr<cluster::TaskTreeNode> RootLeafTree() {
  return Node({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
}

std::vector<LearningTask> MakeTasks() {
  tamp::Rng rng(21);
  std::vector<LearningTask> tasks;
  for (int i = 0; i < 12; ++i) {
    // Tasks 8 and 11 have no support data; the others vary in size.
    int support = (i == 8 || i == 11) ? 0 : 2 + i % 3;
    tasks.push_back(MakeTask(i, 0.01 * (i % 5) - 0.02, support, rng));
  }
  return tasks;
}

void ExpectSameTree(const cluster::TaskTreeNode& want,
                    const cluster::TaskTreeNode& got, const std::string& path) {
  EXPECT_EQ(want.theta, got.theta) << "theta differs at node " << path;
  ASSERT_EQ(want.children.size(), got.children.size());
  for (size_t c = 0; c < want.children.size(); ++c) {
    ExpectSameTree(*want.children[c], *got.children[c],
                   path + "/" + std::to_string(c));
  }
}

struct Observed {
  TamlResult result;
  uint64_t next_draw = 0;
  int64_t iterations = 0;
  int64_t adapt_steps = 0;
  double gauge = 0.0;
};

template <typename TamlFn>
Observed Observe(TamlFn taml, cluster::TaskTreeNode& root,
                 const std::vector<LearningTask>& tasks,
                 const nn::EncoderDecoder& model,
                 const MetaTrainConfig& config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& iterations = registry.GetCounter("meta.iterations");
  obs::Counter& adapt_steps = registry.GetCounter("meta.adapt_steps");
  obs::Gauge& gauge = registry.GetGauge("meta.avg_query_loss");
  gauge.Set(-1.0);
  const int64_t iterations_before = iterations.value();
  const int64_t adapt_before = adapt_steps.value();
  tamp::Rng rng(77);
  Observed out;
  out.result = taml(root, tasks, model, config, rng);
  out.next_draw = rng.Next();
  out.iterations = iterations.value() - iterations_before;
  out.adapt_steps = adapt_steps.value() - adapt_before;
  out.gauge = gauge.value();
  return out;
}

struct Case {
  const char* tree;
  MetaUpdateRule rule;
  int threads;
  int batch_size = 4;
};

std::string CaseName(const Case& c) {
  return std::string(c.tree) +
         (c.rule == MetaUpdateRule::kFomaml ? "_fomaml" : "_reptile") +
         "_t" + std::to_string(c.threads) + "_b" +
         std::to_string(c.batch_size);
}

void PrintTo(const Case& c, std::ostream* os) { *os << CaseName(c); }

class TamlParity : public ::testing::TestWithParam<Case> {};

TEST_P(TamlParity, WavefrontMatchesDepthFirstOracle) {
  const Case& c = GetParam();
  ThreadCountGuard guard(c.threads);
  nn::Seq2SeqConfig model_config;
  model_config.hidden_dim = 5;
  nn::EncoderDecoder model(model_config);
  std::vector<LearningTask> tasks = MakeTasks();
  MetaTrainConfig config;
  config.iterations = 4;
  config.adapt_steps = 2;
  config.batch_size = c.batch_size;
  config.update_rule = c.rule;
  config.weight_fn = [](const geo::Point& p) { return 1.0 + 0.05 * p.x; };

  auto make_tree = std::string(c.tree) == "mixed" ? MixedTree : RootLeafTree;
  tamp::Rng init_rng(5);
  const std::vector<double> init = model.InitParams(init_rng);
  auto want_tree = make_tree();
  auto got_tree = make_tree();
  InitializeTreeParams(*want_tree, init);
  InitializeTreeParams(*got_tree, init);

  Observed want = Observe(oracle::Taml, *want_tree, tasks, model, config);
  Observed got = Observe(Taml, *got_tree, tasks, model, config);

  ExpectSameTree(*want_tree, *got_tree, "root");
  EXPECT_EQ(want.result.avg_loss, got.result.avg_loss);
  EXPECT_EQ(want.result.gradient, got.result.gradient);
  EXPECT_EQ(want.next_draw, got.next_draw);
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_EQ(want.adapt_steps, got.adapt_steps);
  EXPECT_EQ(want.gauge, got.gauge);
  // The fixture must exercise what it claims: training moved the root and
  // some picks contributed.
  EXPECT_NE(got_tree->theta, init);
  EXPECT_GT(got.adapt_steps, 0);
  EXPECT_NE(got.gauge, -1.0);
}

INSTANTIATE_TEST_SUITE_P(
    TreesRulesThreads, TamlParity,
    ::testing::Values(Case{"mixed", MetaUpdateRule::kFomaml, 1},
                      Case{"mixed", MetaUpdateRule::kFomaml, 4},
                      Case{"mixed", MetaUpdateRule::kReptile, 1},
                      Case{"mixed", MetaUpdateRule::kReptile, 4},
                      Case{"mixed", MetaUpdateRule::kFomaml, 1, 1},
                      Case{"mixed", MetaUpdateRule::kFomaml, 4, 1},
                      Case{"root_leaf", MetaUpdateRule::kFomaml, 1},
                      Case{"root_leaf", MetaUpdateRule::kFomaml, 4},
                      Case{"root_leaf", MetaUpdateRule::kReptile, 1},
                      Case{"root_leaf", MetaUpdateRule::kReptile, 4}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return CaseName(info.param);
    });

/// MetaTrain is the one-leaf wavefront: same theta, result and rng.
TEST(MetaTrainParity, OneLeafMatchesOracle) {
  nn::Seq2SeqConfig model_config;
  model_config.hidden_dim = 5;
  nn::EncoderDecoder model(model_config);
  std::vector<LearningTask> tasks = MakeTasks();
  MetaTrainConfig config;
  config.iterations = 5;
  const std::vector<int> members = {1, 2, 8, 3, 4, 5};
  tamp::Rng init_rng(9);
  std::vector<double> want_theta = model.InitParams(init_rng);
  std::vector<double> got_theta = want_theta;
  tamp::Rng want_rng(31), got_rng(31);
  MetaTrainResult want = oracle::MetaTrain(model, tasks, members, want_theta,
                                           config, want_rng);
  MetaTrainResult got =
      MetaTrain(model, tasks, members, got_theta, config, got_rng);
  EXPECT_EQ(want_theta, got_theta);
  EXPECT_EQ(want.avg_query_loss, got.avg_query_loss);
  EXPECT_EQ(want.meta_gradient, got.meta_gradient);
  EXPECT_EQ(want_rng.Next(), got_rng.Next());
}

}  // namespace
}  // namespace tamp::meta
