// Golden SimMetrics fixtures: every (workload, method) replay at 1 and 4
// threads must reproduce tests/testdata/golden_sim_metrics.txt bitwise.
//
// The fixture is the parity reference for the online stage. It was captured
// from the simulator while it still carried alternate paths for each layer
// (a batch-synchronous replay loop, a per-worker scalar forecast, dense and
// incremental candidate generation, an unsharded global solve). Every one
// of them produced these exact values (the replay loop on the dropout-free
// workloads; it never modelled churn), so a change to the one remaining
// path that moves a plan shows up here.
//
// On a mismatch the test prints the full computed fixture text. Replace the
// file with it only when a plan change is intended and explained.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/simulator.h"
#include "data/workload.h"

namespace tamp::core {
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

/// The small test-sized workloads, one per covered (dataset, scenario).
struct GoldenWorkload {
  const char* name;
  data::WorkloadKind kind;
  data::WorkloadScenario scenario;
  uint64_t seed;
};

const std::vector<GoldenWorkload>& GoldenWorkloads() {
  static const std::vector<GoldenWorkload> kAll = {
      {"porto", data::WorkloadKind::kPortoDidi,
       data::WorkloadScenario::kBaseline, 33},
      {"gowalla", data::WorkloadKind::kGowallaFoursquare,
       data::WorkloadScenario::kBaseline, 44},
      {"porto_surge", data::WorkloadKind::kPortoDidi,
       data::WorkloadScenario::kSurge, 33},
      {"porto_churn", data::WorkloadKind::kPortoDidi,
       data::WorkloadScenario::kChurn, 33},
  };
  return kAll;
}

data::WorkloadConfig GoldenWorkloadConfig(const GoldenWorkload& golden) {
  data::WorkloadConfig config;
  config.kind = golden.kind;
  config.scenario = golden.scenario;
  config.num_workers = 30;
  config.num_train_days = 2;
  config.num_tasks = 150;
  config.num_historical_tasks = 300;
  config.seed = golden.seed;
  return config;
}

PipelineConfig GoldenPipeline() {
  PipelineConfig config;
  config.trainer.model.hidden_dim = 6;
  config.trainer.meta.iterations = 6;
  config.trainer.fine_tune_steps = 10;
  config.trainer.projection_dim = 8;
  config.trainer.tree.game.k = 2;
  config.sim.prediction_horizon_steps = 4;
  config.sim.ggpso.generations = 10;
  config.sim.ggpso.population = 10;
  return config;
}

/// One fixture line: the key "<workload> <method>" and every SimMetrics
/// field except the wall-clock assign_seconds, doubles as %.17g.
std::string FormatMetrics(const std::string& key, const SimMetrics& m) {
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.17g", m.total_cost_km);
  std::ostringstream line;
  line << key << " total_tasks=" << m.total_tasks
       << " assignments=" << m.assignments << " accepted=" << m.accepted
       << " completed=" << m.completed << " dropouts=" << m.dropouts
       << " total_cost_km=" << cost;
  return line.str();
}

/// Fixture lines keyed by their first two fields.
std::map<std::string, std::string> LoadFixture(const std::string& path) {
  std::map<std::string, std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t first = line.find(' ');
    const size_t second = line.find(' ', first + 1);
    lines[line.substr(0, second)] = line;
  }
  return lines;
}

TEST(GoldenSimMetricsTest, EveryWorkloadAndMethodMatchesFixture) {
  const std::string path =
      std::string(TAMP_TESTDATA_DIR) + "/golden_sim_metrics.txt";
  const std::map<std::string, std::string> fixture = LoadFixture(path);
  ASSERT_EQ(fixture.size(),
            GoldenWorkloads().size() * AllAssignMethods().size())
      << "cannot read " << path << " or it is incomplete";

  std::string computed;
  int mismatches = 0;
  for (const GoldenWorkload& golden : GoldenWorkloads()) {
    const data::Workload workload =
        data::GenerateWorkload(GoldenWorkloadConfig(golden));
    TampPipeline pipeline(GoldenPipeline());
    const OfflineResult offline = pipeline.TrainOffline(workload);
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      for (AssignMethod method : AllAssignMethods()) {
        const std::string key =
            std::string(golden.name) + " " +
            std::string(AssignMethodName(method));
        const SimMetrics metrics =
            pipeline.RunOnline(workload, offline, method);
        const std::string line = FormatMetrics(key, metrics);
        if (method == AssignMethod::kUpperBound) {
          // UB plans on the real trajectories, so no worker ever declines.
          EXPECT_GT(metrics.assignments, 0) << key;
          EXPECT_EQ(metrics.accepted, metrics.assignments)
              << threads << " threads: " << key << " has rejections";
        }
        if (threads == 1) computed += line + "\n";
        const auto it = fixture.find(key);
        if (it == fixture.end() || it->second != line) {
          ++mismatches;
          ADD_FAILURE() << threads << " threads: got '" << line
                        << "', fixture has '"
                        << (it == fixture.end() ? "<missing>" : it->second)
                        << "'";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "computed fixture:\n" << computed;
}

}  // namespace
}  // namespace tamp::core
