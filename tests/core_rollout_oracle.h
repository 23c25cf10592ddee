#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "nn/encoder_decoder.h"

namespace tamp::core::testing {

/// Reference for core::RolloutPredictBatch: one worker's autoregressive
/// rollout through the scalar EncoderDecoder::Predict chain. It encodes
/// the `recent` observed locations (km) and rolls the decoder out for
/// `horizon_steps` future positions, feeding each prediction back as the
/// latest observation, so the routine can span more steps than the
/// model's native seq_out. Returned points carry timestamps
/// now + i * step_period_min. Row r of the batched rollout is bitwise
/// equal to this chain on row r's parameters and window.
inline std::vector<geo::TimedPoint> RolloutPredict(
    const nn::EncoderDecoder& model, const std::vector<double>& params,
    const std::vector<geo::Point>& recent_km, const geo::GridSpec& grid,
    int horizon_steps, double now_min, double step_period_min,
    nn::PredictScratch* scratch = nullptr) {
  TAMP_CHECK(!recent_km.empty());
  TAMP_CHECK(horizon_steps >= 1);
  const int input_dim = model.config().input_dim;
  TAMP_CHECK_MSG(input_dim == 2 || input_dim == 3,
                 "rollout supports (x, y) or (x, y, time-of-day) inputs");

  // Observed inputs: the i-th recent point was reported at
  // now - (n-1-i) * step_period.
  auto time_of_day = [](double t_min) {
    return std::fmod(t_min, 1440.0) / 1440.0;
  };
  nn::Sequence window;
  window.reserve(recent_km.size());
  for (size_t i = 0; i < recent_km.size(); ++i) {
    geo::Point n = grid.Normalize(recent_km[i]);
    double t = now_min - (static_cast<double>(recent_km.size() - 1 - i)) *
                             step_period_min;
    std::vector<double> step = {n.x, n.y};
    if (input_dim == 3) step.push_back(time_of_day(t));
    window.push_back(std::move(step));
  }
  const size_t window_size = window.size();

  std::vector<geo::TimedPoint> out;
  out.reserve(static_cast<size_t>(horizon_steps));
  while (static_cast<int>(out.size()) < horizon_steps) {
    nn::Sequence pred = model.Predict(params, window, scratch);
    for (const auto& step : pred) {
      if (static_cast<int>(out.size()) >= horizon_steps) break;
      geo::Point km = grid.Denormalize({step[0], step[1]});
      double t = now_min + (static_cast<double>(out.size()) + 1.0) *
                               step_period_min;
      out.push_back({km, t});
      // Slide the window: feed the prediction back as the latest
      // observation (with its future timestamp when time is an input).
      std::vector<double> next = {step[0], step[1]};
      if (input_dim == 3) next.push_back(time_of_day(t));
      window.push_back(std::move(next));
      if (window.size() > window_size) window.erase(window.begin());
    }
  }
  return out;
}

}  // namespace tamp::core::testing
