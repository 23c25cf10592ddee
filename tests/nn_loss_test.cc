#include "nn/loss.h"

#include <gtest/gtest.h>

namespace tamp::nn {
namespace {

/// The steps of `seq` back to back, the loss's prediction layout.
std::vector<double> Flat(const Sequence& seq) {
  std::vector<double> flat;
  for (const auto& step : seq) flat.insert(flat.end(), step.begin(), step.end());
  return flat;
}

double Value(const Sequence& pred, const Sequence& target,
             const std::vector<double>& weights) {
  return WeightedMseLoss::Value(Flat(pred).data(), target, weights);
}

/// dL/d(pred) in `pred`'s shape.
Sequence Gradient(const Sequence& pred, const Sequence& target,
                  const std::vector<double>& weights) {
  const std::vector<double> flat_pred = Flat(pred);
  std::vector<double> flat(flat_pred.size());
  WeightedMseLoss::Gradient(flat_pred.data(), target, weights, flat.data());
  Sequence grad = pred;
  size_t i = 0;
  for (auto& step : grad) {
    for (double& v : step) v = flat[i++];
  }
  return grad;
}

TEST(WeightedMseLossTest, PlainMseValue) {
  Sequence pred = {{1.0, 2.0}, {3.0, 4.0}};
  Sequence target = {{1.0, 2.0}, {3.0, 6.0}};
  // Only one term differs by 2 -> squared 4, divided by 4 terms = 1.
  EXPECT_DOUBLE_EQ(Value(pred, target, {}), 1.0);
}

TEST(WeightedMseLossTest, PerfectPredictionIsZero) {
  Sequence seq = {{0.5, 0.5}, {0.2, 0.8}};
  EXPECT_DOUBLE_EQ(Value(seq, seq, {}), 0.0);
}

TEST(WeightedMseLossTest, WeightsScaleSteps) {
  Sequence pred = {{1.0}, {1.0}};
  Sequence target = {{0.0}, {0.0}};
  // Uniform: (1 + 1) / 2 = 1. Weighted 3x on the first step: (3+1)/2 = 2.
  EXPECT_DOUBLE_EQ(Value(pred, target, {}), 1.0);
  EXPECT_DOUBLE_EQ(Value(pred, target, {3.0, 1.0}), 2.0);
}

TEST(WeightedMseLossTest, GradientDirectionAndScale) {
  Sequence pred = {{2.0, 0.0}};
  Sequence target = {{0.0, 0.0}};
  Sequence grad = Gradient(pred, target, {});
  ASSERT_EQ(grad.size(), 1u);
  // dL/dp = 2 * (p - t) / terms = 2 * 2 / 2 = 2.
  EXPECT_DOUBLE_EQ(grad[0][0], 2.0);
  EXPECT_DOUBLE_EQ(grad[0][1], 0.0);
}

TEST(WeightedMseLossTest, GradientMatchesFiniteDifference) {
  Sequence pred = {{0.3, 0.7}, {0.1, 0.2}};
  Sequence target = {{0.5, 0.4}, {0.0, 0.9}};
  std::vector<double> weights = {1.5, 0.25};
  Sequence grad = Gradient(pred, target, weights);
  const double h = 1e-7;
  for (size_t t = 0; t < pred.size(); ++t) {
    for (size_t d = 0; d < pred[t].size(); ++d) {
      Sequence plus = pred, minus = pred;
      plus[t][d] += h;
      minus[t][d] -= h;
      double numeric = (Value(plus, target, weights) -
                        Value(minus, target, weights)) /
                       (2.0 * h);
      EXPECT_NEAR(grad[t][d], numeric, 1e-6);
    }
  }
}

TEST(WeightedMseLossTest, HigherWeightMeansLargerGradient) {
  Sequence pred = {{1.0}, {1.0}};
  Sequence target = {{0.0}, {0.0}};
  Sequence grad = Gradient(pred, target, {4.0, 1.0});
  EXPECT_GT(grad[0][0], grad[1][0]);
  EXPECT_DOUBLE_EQ(grad[0][0] / grad[1][0], 4.0);
}

}  // namespace
}  // namespace tamp::nn
