// A diverged predictor (NaN parameters) at the online stage's trust
// boundary: its forecast is non-finite, so the simulator drops it and the
// worker is assigned on the LB view (current location only). The run must
// complete on both datasets for every predicting method, and
// sim.nonfinite_forecasts must count exactly the poisoned worker-triggers.
// Under the sanitizer build (float-cast-overflow traps) this also checks
// that no NaN point reaches the spatial index's cell math.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/obs/metrics.h"
#include "common/rng.h"
#include "core/simulator.h"
#include "data/workload.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {
namespace {

struct Delta {
  int64_t nonfinite = 0;
  int64_t batches = 0;
  double available_sum = 0.0;  // Sum of |available| over every batch.
};

class NonFiniteForecastTest
    : public ::testing::TestWithParam<data::WorkloadKind> {
 protected:
  void SetUp() override {
    data::WorkloadConfig config;
    config.kind = GetParam();
    config.num_workers = 12;
    config.num_train_days = 1;
    config.num_tasks = 80;
    config.num_historical_tasks = 50;
    config.seed = 41;
    workload_ = data::GenerateWorkload(config);
    model_config_.input_dim = data::kSampleInputDim;
    model_config_.hidden_dim = 8;
    nn::EncoderDecoder model(model_config_);
    Rng rng(7);
    for (size_t w = 0; w < workload_.workers.size(); ++w) {
      params_.push_back(model.InitParams(rng));
    }
    poisoned_.assign(params_.front().size(),
                     std::numeric_limits<double>::quiet_NaN());
  }

  /// Runs `method` with the workers flagged in `poison` on NaN params.
  Delta Run(AssignMethod method, const std::vector<bool>& poison,
            SimMetrics* metrics) {
    std::vector<WorkerPredictor> predictors(workload_.workers.size());
    for (size_t w = 0; w < predictors.size(); ++w) {
      predictors[w].params = poison[w] ? &poisoned_ : &params_[w];
      predictors[w].matching_rate = 0.5;
    }
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Counter& nonfinite = registry.GetCounter("sim.nonfinite_forecasts");
    obs::Counter& batches = registry.GetCounter("sim.batches");
    obs::Histogram& available =
        registry.GetHistogram("sim.available_workers", obs::CountEdges());
    const Delta before{nonfinite.value(), batches.value(), available.sum()};
    nn::EncoderDecoder model(model_config_);
    SimulatorConfig sim;
    *metrics = BatchSimulator(workload_, model, sim).Run(method, predictors);
    return {nonfinite.value() - before.nonfinite,
            batches.value() - before.batches,
            available.sum() - before.available_sum};
  }

  data::Workload workload_;
  nn::Seq2SeqConfig model_config_;
  std::vector<std::vector<double>> params_;
  std::vector<double> poisoned_;
};

constexpr AssignMethod kPredictingMethods[] = {
    AssignMethod::kKm, AssignMethod::kPpi, AssignMethod::kGgpso};

TEST_P(NonFiniteForecastTest, OnePoisonedWorkerIsCountedAndTheRunCompletes) {
  std::vector<bool> poison(workload_.workers.size(), false);
  poison[3] = true;
  for (AssignMethod method : kPredictingMethods) {
    SimMetrics m;
    const Delta d = Run(method, poison, &m);
    EXPECT_GT(d.batches, 0) << AssignMethodName(method);
    // One count per trigger that saw the poisoned worker available.
    EXPECT_GT(d.nonfinite, 0) << AssignMethodName(method);
    EXPECT_LE(d.nonfinite, d.batches) << AssignMethodName(method);
    EXPECT_EQ(m.total_tasks, 80) << AssignMethodName(method);
    EXPECT_LE(m.completed, m.total_tasks) << AssignMethodName(method);
    EXPECT_GE(m.total_cost_km, 0.0) << AssignMethodName(method);
  }

  // The poisoned worker alone: it is the whole of every batch, so the
  // counter equals the batches it was available for, and it still
  // completes tasks near its current location.
  workload_.workers = {workload_.workers[3]};
  params_ = {params_[3]};
  for (AssignMethod method : kPredictingMethods) {
    SimMetrics m;
    const Delta d = Run(method, {true}, &m);
    EXPECT_GT(d.batches, 0) << AssignMethodName(method);
    EXPECT_EQ(d.nonfinite, d.batches) << AssignMethodName(method);
    EXPECT_GT(m.completed, 0) << AssignMethodName(method);
  }
}

TEST_P(NonFiniteForecastTest, CountEqualsEveryPoisonedWorkerTrigger) {
  // With the whole fleet poisoned, every worker of every batch is one
  // non-finite forecast: the counter equals the summed batch widths.
  const std::vector<bool> poison(workload_.workers.size(), true);
  for (AssignMethod method : kPredictingMethods) {
    SimMetrics m;
    const Delta d = Run(method, poison, &m);
    EXPECT_GT(d.batches, 0) << AssignMethodName(method);
    EXPECT_EQ(static_cast<double>(d.nonfinite), d.available_sum)
        << AssignMethodName(method);
    EXPECT_GT(m.completed, 0) << AssignMethodName(method);
  }
}

TEST_P(NonFiniteForecastTest, FiniteFleetCountsNothing) {
  const std::vector<bool> poison(workload_.workers.size(), false);
  SimMetrics m;
  EXPECT_EQ(Run(AssignMethod::kPpi, poison, &m).nonfinite, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, NonFiniteForecastTest,
    ::testing::Values(data::WorkloadKind::kPortoDidi,
                      data::WorkloadKind::kGowallaFoursquare),
    [](const ::testing::TestParamInfo<data::WorkloadKind>& info) {
      return std::string(data::WorkloadKindName(info.param));
    });

}  // namespace
}  // namespace tamp::core
