#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/encoder_decoder.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"

namespace tamp::nn {
namespace {

/// Central-difference numerical gradient of a scalar function of the
/// parameter vector.
std::vector<double> NumericalGradient(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> params, double h = 1e-6) {
  std::vector<double> grad(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    double orig = params[i];
    params[i] = orig + h;
    double plus = f(params);
    params[i] = orig - h;
    double minus = f(params);
    params[i] = orig;
    grad[i] = (plus - minus) / (2.0 * h);
  }
  return grad;
}

double MaxRelError(const std::vector<double>& a,
                   const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double denom = std::max({std::fabs(a[i]), std::fabs(b[i]), 1e-4});
    worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
  }
  return worst;
}

TEST(LinearGradientTest, MatchesFiniteDifferences) {
  tamp::Rng rng(3);
  Linear layer(3, 2, 0);
  std::vector<double> params(layer.param_count());
  layer.InitParams(rng, params);
  std::vector<double> x = {0.5, -0.3, 0.8};
  std::vector<double> target = {0.2, -0.1};

  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> y(2);
    layer.Forward(p, x.data(), y.data());
    double loss = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      loss += (y[i] - target[i]) * (y[i] - target[i]);
    }
    return loss;
  };

  // Analytic gradient: dL/dy = 2(y - t), backprop through the layer.
  std::vector<double> y(2);
  layer.Forward(params, x.data(), y.data());
  std::vector<double> dy(y.size());
  for (size_t i = 0; i < y.size(); ++i) dy[i] = 2.0 * (y[i] - target[i]);
  std::vector<double> grad(params.size(), 0.0);
  layer.WeightGradient(x.data(), dy.data(), /*steps=*/1, /*scale=*/1.0, grad);

  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-5);
}

TEST(LinearGradientTest, InputGradientMatchesFiniteDifferences) {
  tamp::Rng rng(4);
  Linear layer(3, 2, 0);
  std::vector<double> params(layer.param_count());
  layer.InitParams(rng, params);
  std::vector<double> x = {0.5, -0.3, 0.8};

  auto loss_of_x = [&](const std::vector<double>& xin) {
    std::vector<double> y(2);
    layer.Forward(params, xin.data(), y.data());
    return y[0] * y[0] + 0.5 * y[1];
  };

  std::vector<double> y(2);
  layer.Forward(params, x.data(), y.data());
  std::vector<double> dy = {2.0 * y[0], 0.5};
  std::vector<double> dx(x.size());
  layer.BackwardInput(params, dy.data(), dx.data());

  std::vector<double> numeric = NumericalGradient(loss_of_x, x);
  EXPECT_LT(MaxRelError(dx, numeric), 1e-5);
}

TEST(LstmCellGradientTest, MatchesFiniteDifferencesThroughTwoSteps) {
  tamp::Rng rng(5);
  const int input_dim = 2, hidden = 3;
  LstmCell cell(input_dim, hidden, 0);
  std::vector<double> params(cell.param_count());
  cell.InitParams(rng, params);
  std::vector<std::vector<double>> xs = {{0.3, -0.7}, {0.9, 0.1}};

  // Scalar objective: sum of final hidden state entries squared.
  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> h(hidden, 0.0), c(hidden, 0.0);
    LstmTrace trace;
    cell.ResizeTrace(trace, xs.size());
    for (size_t t = 0; t < xs.size(); ++t) {
      cell.Forward(p, xs[t].data(), h.data(), c.data(), trace, t);
    }
    double loss = 0.0;
    for (double v : h) loss += v * v;
    return loss;
  };

  // Analytic: forward into a flat trace, a state pass back through both
  // steps keeping each step's gate gradients, then one weight pass.
  std::vector<double> h(hidden, 0.0), c(hidden, 0.0);
  LstmTrace trace;
  cell.ResizeTrace(trace, xs.size());
  for (size_t t = 0; t < xs.size(); ++t) {
    cell.Forward(params, xs[t].data(), h.data(), c.data(), trace, t);
  }
  std::vector<double> dh(hidden), dc(hidden, 0.0);
  std::vector<double> dz(xs.size() * 4 * hidden);
  for (int k = 0; k < hidden; ++k) dh[k] = 2.0 * h[k];
  for (size_t t = xs.size(); t-- > 0;) {
    cell.BackwardState(params, trace, t, dh.data(), dc.data(),
                       dz.data() + t * 4 * hidden);
  }
  std::vector<double> grad(params.size(), 0.0);
  cell.WeightGradient(trace, dz.data(), xs.size(), /*scale=*/1.0, grad);

  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-4);
}

TEST(EncoderDecoderGradientTest, MatchesFiniteDifferences) {
  tamp::Rng rng(6);
  Seq2SeqConfig config;
  config.hidden_dim = 4;
  config.seq_out = 2;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);

  Sequence input = {{0.2, 0.3}, {0.25, 0.35}, {0.3, 0.4}};
  Sequence target = {{0.35, 0.45}, {0.4, 0.5}};

  // Every pass shares one TrainScratch, as BatchLossAndGradient does.
  TrainScratch scratch;
  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> unused(p.size(), 0.0);
    return model.LossAndGradient(p, input, target, {}, unused, &scratch);
  };

  std::vector<double> grad(params.size(), 0.0);
  model.LossAndGradient(params, input, target, {}, grad, &scratch);
  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-4);
}

TEST(EncoderDecoderGradientTest, WeightedLossGradientMatches) {
  tamp::Rng rng(7);
  Seq2SeqConfig config;
  config.hidden_dim = 4;
  config.seq_out = 2;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);

  Sequence input = {{0.1, 0.9}, {0.2, 0.8}};
  Sequence target = {{0.3, 0.7}, {0.4, 0.6}};
  std::vector<double> weights = {2.5, 0.5};  // Task-oriented step weights.

  TrainScratch scratch;
  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> unused(p.size(), 0.0);
    return model.LossAndGradient(p, input, target, weights, unused, &scratch);
  };

  std::vector<double> grad(params.size(), 0.0);
  model.LossAndGradient(params, input, target, weights, grad, &scratch);
  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-4);
}

/// The production shape family: (x, y, time-of-day) inputs and a 3-step
/// teacher-forced decoder, through a scratch first used at another shape.
TEST(EncoderDecoderGradientTest, TimeInputLongHorizonMatches) {
  tamp::Rng rng(8);
  Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.seq_out = 3;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);

  Sequence input = {{0.2, 0.3, 0.1}, {0.25, 0.35, 0.2}, {0.3, 0.4, 0.3},
                    {0.32, 0.41, 0.4}};
  Sequence target = {{0.35, 0.45}, {0.4, 0.5}, {0.42, 0.55}};
  std::vector<double> weights = {1.5, 1.0, 0.5};

  TrainScratch scratch;
  {
    Seq2SeqConfig other;
    other.hidden_dim = 7;
    EncoderDecoder warm(other);
    std::vector<double> warm_params = warm.InitParams(rng);
    std::vector<double> warm_grad(warm_params.size(), 0.0);
    warm.LossAndGradient(warm_params, {{0.1, 0.2}}, {{0.3, 0.4}}, {},
                         warm_grad, &scratch);
  }
  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> unused(p.size(), 0.0);
    return model.LossAndGradient(p, input, target, weights, unused, &scratch);
  };

  std::vector<double> grad(params.size(), 0.0);
  model.LossAndGradient(params, input, target, weights, grad, &scratch);
  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-4);
}

}  // namespace
}  // namespace tamp::nn
