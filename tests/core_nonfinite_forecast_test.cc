// A diverged predictor (NaN parameters) at the online stage's trust
// boundary: its forecast is non-finite, so the simulator drops it and the
// worker is assigned on the LB view (current location only). The run must
// complete on both datasets for every predicting method, and
// sim.nonfinite_forecasts must count exactly the poisoned worker-triggers.
// Under the sanitizer build (float-cast-overflow traps) this also checks
// that no NaN point reaches the spatial index's cell math. Upstream, a
// worker whose training diverges is contained in the offline stage
// (meta.nonfinite_losses) and reaches this guard as a NaN predictor. A
// simulator also repacks its predictors on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/obs/metrics.h"
#include "common/rng.h"
#include "core/pipeline.h"
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

TEST_P(NonFiniteForecastTest, EveryRunForecastsOnFreshPacks) {
  // Predictors are packed once per run, keyed by worker index. Rewriting a
  // predictor in place between two runs of one simulator (same pointers)
  // must reach the second run's forecasts: it then reads exactly like a
  // fresh simulator's run, and restoring the predictor restores the first.
  nn::EncoderDecoder model(model_config_);
  SimulatorConfig sim;
  std::vector<WorkerPredictor> predictors(workload_.workers.size());
  for (size_t w = 0; w < predictors.size(); ++w) {
    predictors[w].params = &params_[w];
    predictors[w].matching_rate = 0.5;
  }
  obs::Counter& nonfinite = obs::MetricsRegistry::Global().GetCounter(
      "sim.nonfinite_forecasts");
  auto same = [](const SimMetrics& a, const SimMetrics& b) {
    return a.assignments == b.assignments && a.accepted == b.accepted &&
           a.completed == b.completed && a.total_cost_km == b.total_cost_km;
  };
  BatchSimulator reused(workload_, model, sim);
  const std::vector<double> saved = params_[3];
  for (AssignMethod method : kPredictingMethods) {
    const SimMetrics clean = reused.Run(method, predictors);
    params_[3] = poisoned_;
    const int64_t before = nonfinite.value();
    const SimMetrics dirty = reused.Run(method, predictors);
    EXPECT_GT(nonfinite.value(), before) << AssignMethodName(method);
    EXPECT_TRUE(same(dirty, BatchSimulator(workload_, model, sim)
                                .Run(method, predictors)))
        << AssignMethodName(method);
    params_[3] = saved;
    const int64_t restored_before = nonfinite.value();
    EXPECT_TRUE(same(reused.Run(method, predictors), clean))
        << AssignMethodName(method);
    EXPECT_EQ(nonfinite.value(), restored_before) << AssignMethodName(method);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, NonFiniteForecastTest,
    ::testing::Values(data::WorkloadKind::kPortoDidi,
                      data::WorkloadKind::kGowallaFoursquare),
    [](const ::testing::TestParamInfo<data::WorkloadKind>& info) {
      return std::string(data::WorkloadKindName(info.param));
    });

/// A worker whose training windows carry an infinite coordinate: its
/// first batch loss is finite (the gates saturate), but its gradient is
/// NaN (a zero gate gradient times the infinite input), so every TAML
/// adaptation and its fine-tune leave NaN parameters behind. The offline
/// stage must complete and count each TAML pick of the worker and its
/// fine-tune once in meta.nonfinite_losses; the other workers stay finite,
/// and the online stage counts the worker's forecasts.
TEST(NonFiniteTrainingTest, PoisonedWorkerIsCountedAndContained) {
  data::WorkloadConfig workload_config;
  workload_config.kind = data::WorkloadKind::kPortoDidi;
  workload_config.num_workers = 6;
  workload_config.num_train_days = 1;
  workload_config.num_tasks = 80;
  workload_config.num_historical_tasks = 50;
  workload_config.seed = 41;
  data::Workload workload = data::GenerateWorkload(workload_config);
  const size_t kPoisoned = 2;
  for (auto* samples : {&workload.learning_tasks[kPoisoned].support,
                        &workload.learning_tasks[kPoisoned].query,
                        &workload.learning_tasks[kPoisoned].eval}) {
    ASSERT_FALSE(samples->empty());
    for (meta::TrainingSample& sample : *samples) {
      sample.input[0][0] = std::numeric_limits<double>::infinity();
    }
  }

  PipelineConfig config;
  config.trainer.model.hidden_dim = 8;
  // MAML: one leaf holding every worker. A batch as wide as the fleet
  // picks the poisoned worker once per iteration. (The clustered
  // algorithms' learning-path factor projects the probe gradient, which is
  // not contained here.)
  config.meta_algorithm = meta::MetaAlgorithm::kMaml;
  config.trainer.meta.iterations = 4;
  config.trainer.meta.batch_size = 6;
  config.trainer.fine_tune_steps = 3;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& losses = registry.GetCounter("meta.nonfinite_losses");
  obs::Counter& forecasts = registry.GetCounter("sim.nonfinite_forecasts");

  TampPipeline pipeline(config);
  const int64_t losses_before = losses.value();
  const OfflineResult offline = pipeline.TrainOffline(workload);
  EXPECT_EQ(losses.value() - losses_before, 4 + 1);
  ASSERT_EQ(offline.models.worker_params.size(), 6u);
  for (size_t w = 0; w < 6; ++w) {
    const std::vector<double>& params = offline.models.worker_params[w];
    const bool finite = std::all_of(params.begin(), params.end(),
                                    [](double p) { return std::isfinite(p); });
    EXPECT_EQ(finite, w != kPoisoned) << "worker " << w;
  }

  const int64_t forecasts_before = forecasts.value();
  const SimMetrics metrics =
      pipeline.RunOnline(workload, offline, AssignMethod::kPpi);
  EXPECT_GT(forecasts.value(), forecasts_before);
  EXPECT_EQ(metrics.total_tasks, 80);
}

}  // namespace
}  // namespace tamp::core
