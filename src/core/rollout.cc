#include "core/rollout.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace tamp::core {

void RolloutPredictBatch(
    const nn::BatchedSeq2Seq& engine,
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out) {
  TAMP_CHECK(out != nullptr);
  TAMP_CHECK(recent_km.size() == row_params.size());
  const size_t rows = row_params.size();
  out->resize(rows);
  if (rows == 0) return;
  TAMP_CHECK(horizon_steps >= 1);
  const int input_dim = engine.config().input_dim;
  TAMP_CHECK_MSG(input_dim == 2 || input_dim == 3,
                 "rollout supports (x, y) or (x, y, time-of-day) inputs");
  TAMP_CHECK(!recent_km[0].empty());
  const size_t window_size = recent_km[0].size();
  for (const std::vector<geo::Point>& recent : recent_km) {
    TAMP_CHECK_MSG(recent.size() == window_size,
                   "batched rollout rows must share one window length");
  }

  auto time_of_day = [](double t_min) {
    return std::fmod(t_min, 1440.0) / 1440.0;
  };
  // Pack the fleet's sliding windows as SoA [step][feature][row] (caller
  // row order; the engine handles its own column permutation). The i-th
  // recent point was reported at now - (n-1-i) * step_period.
  const size_t id = static_cast<size_t>(input_dim);
  const size_t od = static_cast<size_t>(engine.config().output_dim);
  const size_t seq_out = static_cast<size_t>(engine.config().seq_out);
  scratch.window.resize(window_size * id * rows);
  scratch.preds.resize(seq_out * od * rows);
  for (size_t t = 0; t < window_size; ++t) {
    const double t_min =
        now_min -
        static_cast<double>(window_size - 1 - t) * step_period_min;
    const double tod = time_of_day(t_min);
    double* wx = scratch.window.data() + (t * id + 0) * rows;
    double* wy = scratch.window.data() + (t * id + 1) * rows;
    double* wt = input_dim == 3
                     ? scratch.window.data() + (t * id + 2) * rows
                     : nullptr;
    for (size_t r = 0; r < rows; ++r) {
      geo::Point n = grid.Normalize(recent_km[r][t]);
      wx[r] = n.x;
      wy[r] = n.y;
      if (wt != nullptr) wt[r] = tod;
    }
  }

  for (size_t r = 0; r < rows; ++r) {
    (*out)[r].clear();
    (*out)[r].reserve(static_cast<size_t>(horizon_steps));
  }
  int produced = 0;
  while (produced < horizon_steps) {
    engine.Forward(row_params, static_cast<int>(window_size),
                   scratch.window.data(), scratch.preds.data(),
                   scratch.engine);
    for (size_t s = 0; s < seq_out; ++s) {
      if (produced >= horizon_steps) break;
      const double* px = scratch.preds.data() + (s * od + 0) * rows;
      const double* py = scratch.preds.data() + (s * od + 1) * rows;
      const double t =
          now_min + (static_cast<double>(produced) + 1.0) * step_period_min;
      for (size_t r = 0; r < rows; ++r) {
        geo::Point km = grid.Denormalize({px[r], py[r]});
        (*out)[r].push_back({km, t});
      }
      // Slide every window one step: drop the oldest step (a block shift
      // in [step][feature][row] layout) and append the prediction with its
      // future timestamp, exactly like the scalar feedback loop.
      std::copy(scratch.window.begin() +
                    static_cast<std::ptrdiff_t>(id * rows),
                scratch.window.end(), scratch.window.begin());
      double* wx =
          scratch.window.data() + ((window_size - 1) * id + 0) * rows;
      double* wy =
          scratch.window.data() + ((window_size - 1) * id + 1) * rows;
      for (size_t r = 0; r < rows; ++r) {
        wx[r] = px[r];
        wy[r] = py[r];
      }
      if (input_dim == 3) {
        double* wt =
            scratch.window.data() + ((window_size - 1) * id + 2) * rows;
        const double tod = time_of_day(t);
        for (size_t r = 0; r < rows; ++r) wt[r] = tod;
      }
      ++produced;
    }
  }
}

}  // namespace tamp::core
