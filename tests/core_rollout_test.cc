#include "core_rollout_oracle.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tamp::core {
namespace {

using testing::RolloutPredict;

TEST(RolloutPredictTest, ProducesRequestedHorizon) {
  tamp::Rng rng(3);
  nn::Seq2SeqConfig config;
  config.hidden_dim = 6;
  config.seq_out = 1;
  nn::EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  geo::GridSpec grid(20.0, 10.0, 50, 100);

  std::vector<geo::Point> recent = {{5, 5}, {5.5, 5}, {6, 5}};
  auto predicted =
      RolloutPredict(model, params, recent, grid, 6, 100.0, 10.0);
  ASSERT_EQ(predicted.size(), 6u);
  for (size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_DOUBLE_EQ(predicted[i].time_min, 100.0 + 10.0 * (i + 1));
    EXPECT_GE(predicted[i].loc.x, 0.0);
    EXPECT_LE(predicted[i].loc.x, grid.width_km());
    EXPECT_GE(predicted[i].loc.y, 0.0);
    EXPECT_LE(predicted[i].loc.y, grid.height_km());
  }
}

TEST(RolloutPredictTest, MultiStepModelFillsHorizonInChunks) {
  tamp::Rng rng(5);
  nn::Seq2SeqConfig config;
  config.hidden_dim = 6;
  config.seq_out = 3;
  nn::EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  geo::GridSpec grid(20.0, 10.0, 50, 100);

  auto predicted = RolloutPredict(model, params, {{5, 5}}, grid, 7, 0.0, 10.0);
  EXPECT_EQ(predicted.size(), 7u);  // 3 + 3 + 1 (truncated).
}

TEST(RolloutPredictTest, DeterministicGivenParams) {
  tamp::Rng rng(7);
  nn::Seq2SeqConfig config;
  config.hidden_dim = 6;
  nn::EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  geo::GridSpec grid(20.0, 10.0, 50, 100);
  std::vector<geo::Point> recent = {{3, 3}, {4, 4}};
  auto a = RolloutPredict(model, params, recent, grid, 5, 0.0, 10.0);
  auto b = RolloutPredict(model, params, recent, grid, 5, 0.0, 10.0);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].loc.x, b[i].loc.x);
    EXPECT_DOUBLE_EQ(a[i].loc.y, b[i].loc.y);
  }
}

TEST(RolloutPredictTest, TrainedModelExtrapolatesMotion) {
  // Train a small model on rightward motion (+0.05 per step, normalized),
  // then check the rollout continues rightward.
  tamp::Rng rng(9);
  nn::Seq2SeqConfig config;
  config.hidden_dim = 8;
  nn::EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  std::vector<double> grad(params.size());
  for (int epoch = 0; epoch < 300; ++epoch) {
    double x = rng.Uniform(0.1, 0.5), y = rng.Uniform(0.3, 0.7);
    nn::Sequence input;
    for (int t = 0; t < 3; ++t) input.push_back({x + 0.05 * t, y});
    nn::Sequence target = {{x + 0.15, y}};
    std::fill(grad.begin(), grad.end(), 0.0);
    model.LossAndGradient(params, input, target, {}, grad);
    for (size_t i = 0; i < params.size(); ++i) params[i] -= 0.2 * grad[i];
  }
  geo::GridSpec grid(10.0, 10.0, 10, 10);
  std::vector<geo::Point> recent = {{2.0, 5.0}, {2.5, 5.0}, {3.0, 5.0}};
  auto predicted = RolloutPredict(model, params, recent, grid, 4, 0.0, 10.0);
  // Each prediction should be to the right of the last observation, and
  // the sequence should keep advancing.
  EXPECT_GT(predicted[0].loc.x, 3.0);
  EXPECT_GT(predicted[3].loc.x, predicted[0].loc.x);
}

}  // namespace
}  // namespace tamp::core
