#include "core/simulator.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/obs/trace.h"
#include "core/pipeline.h"
#include "data/workload.h"

namespace tamp::core {
namespace {

data::WorkloadConfig SmallWorkload() {
  data::WorkloadConfig config;
  config.num_workers = 12;
  config.num_train_days = 2;
  config.num_tasks = 60;
  config.num_historical_tasks = 300;
  config.seed = 33;
  return config;
}

PipelineConfig SmallPipeline() {
  PipelineConfig config;
  config.trainer.model.hidden_dim = 6;
  config.trainer.meta.iterations = 3;
  config.trainer.fine_tune_steps = 3;
  config.trainer.projection_dim = 8;
  config.trainer.tree.game.k = 2;
  config.sim.prediction_horizon_steps = 4;
  config.sim.ggpso.generations = 10;
  config.sim.ggpso.population = 10;
  return config;
}

/// Shared fixture: one workload, one offline training pass.
class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new data::Workload(data::GenerateWorkload(SmallWorkload()));
    pipeline_ = new TampPipeline(SmallPipeline());
    offline_ = new OfflineResult(pipeline_->TrainOffline(*workload_));
  }
  static void TearDownTestSuite() {
    delete offline_;
    delete pipeline_;
    delete workload_;
    offline_ = nullptr;
    pipeline_ = nullptr;
    workload_ = nullptr;
  }

  static data::Workload* workload_;
  static TampPipeline* pipeline_;
  static OfflineResult* offline_;
};

data::Workload* SimulatorTest::workload_ = nullptr;
TampPipeline* SimulatorTest::pipeline_ = nullptr;
OfflineResult* SimulatorTest::offline_ = nullptr;

TEST_F(SimulatorTest, UpperBoundNeverRejected) {
  SimMetrics m =
      pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kUpperBound);
  EXPECT_EQ(m.assignments, m.accepted);
  EXPECT_DOUBLE_EQ(m.RejectionRatio(), 0.0);
  EXPECT_GT(m.completed, 0);
}

TEST_F(SimulatorTest, MetricsAccountingIsConsistent) {
  for (AssignMethod method :
       {AssignMethod::kUpperBound, AssignMethod::kLowerBound,
        AssignMethod::kKm, AssignMethod::kPpi, AssignMethod::kGgpso}) {
    SimMetrics m = pipeline_->RunOnline(*workload_, *offline_, method);
    EXPECT_EQ(m.total_tasks, 60) << AssignMethodName(method);
    EXPECT_LE(m.accepted, m.assignments) << AssignMethodName(method);
    EXPECT_EQ(m.completed, m.accepted) << AssignMethodName(method);
    EXPECT_LE(m.completed, m.total_tasks) << AssignMethodName(method);
    EXPECT_GE(m.total_cost_km, 0.0) << AssignMethodName(method);
    EXPECT_GE(m.CompletionRatio(), 0.0);
    EXPECT_LE(m.CompletionRatio(), 1.0);
    EXPECT_GE(m.RejectionRatio(), 0.0);
    EXPECT_LE(m.RejectionRatio(), 1.0);
  }
}

TEST_F(SimulatorTest, UpperBoundDominatesLowerBoundOnCompletion) {
  SimMetrics ub =
      pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kUpperBound);
  SimMetrics lb =
      pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kLowerBound);
  EXPECT_GE(ub.CompletionRatio(), lb.CompletionRatio());
}

TEST_F(SimulatorTest, AcceptedDetoursRespectBudgets) {
  // Every accepted assignment's cost is bounded by the (uniform) budget,
  // so the average cost is too.
  SimMetrics m = pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kPpi);
  if (m.accepted > 0) {
    EXPECT_LE(m.AvgCostKm(), SmallWorkload().detour_budget_km + 1e-9);
  }
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  SimMetrics a = pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kKm);
  SimMetrics b = pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kKm);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.total_cost_km, b.total_cost_km);
}

TEST_F(SimulatorTest, OneRunRecordsExactlyOneSimRunSpan) {
  // Regression: BatchSimulator::Run and EventSimulator::Run both used to
  // open sim.run, so a traced run counted its wall time twice.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kKm);
  recorder.Disable();
  const std::map<std::string, obs::SpanStats> spans =
      recorder.AggregateStats();
  recorder.Clear();
  ASSERT_EQ(spans.count("sim.run"), 1u);
  EXPECT_EQ(spans.at("sim.run").count, 1);
  ASSERT_EQ(spans.count("pipeline.run_online"), 1u);
  EXPECT_EQ(spans.at("pipeline.run_online").count, 1);
}

TEST_F(SimulatorTest, ForecastSpansOnlyWhenTheMethodPredicts) {
  // sim.forecast times the fleet rollout alone: UB/LB never forecast, so
  // they record none, while every batch still builds its views. KM records
  // one forecast per batch. The candidate layer is the same: KM, PPI and
  // GGPSO build one candidate table per batch under assign.candidates,
  // UB and LB build none.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const auto spans_of = [&](AssignMethod method) {
    recorder.Clear();
    recorder.Enable();
    pipeline_->RunOnline(*workload_, *offline_, method);
    recorder.Disable();
    std::map<std::string, obs::SpanStats> spans = recorder.AggregateStats();
    recorder.Clear();
    return spans;
  };
  for (AssignMethod method :
       {AssignMethod::kUpperBound, AssignMethod::kLowerBound}) {
    const std::map<std::string, obs::SpanStats> spans = spans_of(method);
    EXPECT_EQ(spans.count("sim.forecast"), 0u) << AssignMethodName(method);
    EXPECT_EQ(spans.count("assign.candidates"), 0u)
        << AssignMethodName(method);
    ASSERT_EQ(spans.count("sim.batch"), 1u) << AssignMethodName(method);
    ASSERT_EQ(spans.count("sim.views"), 1u) << AssignMethodName(method);
    EXPECT_EQ(spans.at("sim.views").count, spans.at("sim.batch").count);
    const std::string solve =
        method == AssignMethod::kUpperBound ? "ub.solve" : "lb.solve";
    ASSERT_EQ(spans.count(solve), 1u);
    EXPECT_EQ(spans.at(solve).count, spans.at("sim.batch").count);
  }
  const std::map<std::string, obs::SpanStats> km = spans_of(AssignMethod::kKm);
  ASSERT_EQ(km.count("sim.batch"), 1u);
  ASSERT_EQ(km.count("sim.forecast"), 1u);
  EXPECT_EQ(km.at("sim.forecast").count, km.at("sim.batch").count);
  EXPECT_EQ(km.at("sim.views").count, km.at("sim.batch").count);
  for (AssignMethod method :
       {AssignMethod::kKm, AssignMethod::kPpi, AssignMethod::kGgpso}) {
    const std::map<std::string, obs::SpanStats> spans = spans_of(method);
    ASSERT_EQ(spans.count("sim.batch"), 1u) << AssignMethodName(method);
    ASSERT_EQ(spans.count("assign.candidates"), 1u)
        << AssignMethodName(method);
    EXPECT_EQ(spans.at("assign.candidates").count,
              spans.at("sim.batch").count)
        << AssignMethodName(method);
  }
}

TEST(AssignMethodNameTest, AllNamed) {
  EXPECT_EQ(AssignMethodName(AssignMethod::kUpperBound), "UB");
  EXPECT_EQ(AssignMethodName(AssignMethod::kLowerBound), "LB");
  EXPECT_EQ(AssignMethodName(AssignMethod::kKm), "KM");
  EXPECT_EQ(AssignMethodName(AssignMethod::kPpi), "PPI");
  EXPECT_EQ(AssignMethodName(AssignMethod::kGgpso), "GGPSO");
}

TEST(SimMetricsTest, RatiosHandleZeroDenominators) {
  SimMetrics m;
  EXPECT_EQ(m.CompletionRatio(), 0.0);
  EXPECT_EQ(m.RejectionRatio(), 0.0);
  EXPECT_EQ(m.AvgCostKm(), 0.0);
}

}  // namespace
}  // namespace tamp::core
