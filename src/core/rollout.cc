#include "core/rollout.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"

namespace tamp::core {
namespace {

/// Rows per parallel chunk: fixed, so chunking never depends on the
/// thread count.
constexpr size_t kRolloutChunkRows = 64;

double TimeOfDay(double t_min) { return std::fmod(t_min, 1440.0) / 1440.0; }

}  // namespace

void RolloutPredictBatch(
    const nn::PackedSeq2Seq& engine,
    const std::vector<const nn::PackedSeq2SeqParams*>& row_packs,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& cells_counter =
      registry.GetCounter("nn.forecast_cells");
  static obs::Counter& rows_counter = registry.GetCounter("nn.batch_rows");

  TAMP_CHECK(out != nullptr);
  TAMP_CHECK(recent_km.size() == row_packs.size());
  const size_t rows = row_packs.size();
  out->resize(rows);
  if (rows == 0) return;
  TAMP_CHECK(horizon_steps >= 1);
  const int input_dim = engine.config().input_dim;
  TAMP_CHECK_MSG(input_dim == 2 || input_dim == 3,
                 "rollout supports (x, y) or (x, y, time-of-day) inputs");
  TAMP_CHECK(!recent_km[0].empty());
  const size_t window_size = recent_km[0].size();
  for (size_t r = 0; r < rows; ++r) {
    TAMP_CHECK(row_packs[r] != nullptr);
    TAMP_CHECK_MSG(recent_km[r].size() == window_size,
                   "batched rollout rows must share one window length");
  }

  const size_t id = static_cast<size_t>(input_dim);
  const size_t od = static_cast<size_t>(engine.config().output_dim);
  const size_t seq_out = static_cast<size_t>(engine.config().seq_out);
  const size_t horizon = static_cast<size_t>(horizon_steps);
  // Every row shares the clock: the i-th recent point was reported at
  // now - (n-1-i) * step_period, the i-th forecast lands at
  // now + (i+1) * step_period.
  scratch.observed_tod.resize(window_size);
  for (size_t t = 0; t < window_size; ++t) {
    scratch.observed_tod[t] = TimeOfDay(
        now_min - static_cast<double>(window_size - 1 - t) * step_period_min);
  }
  scratch.future_tod.resize(horizon);
  for (size_t i = 0; i < horizon; ++i) {
    scratch.future_tod[i] =
        TimeOfDay(now_min + (static_cast<double>(i) + 1.0) * step_period_min);
  }

  // Deterministic work accounting, as the scalar path would pay it: each
  // engine pass is one Predict call of (seq_in + seq_out) cell steps.
  const size_t passes = (horizon + seq_out - 1) / seq_out;
  cells_counter.Increment(
      static_cast<int64_t>(rows * passes * (window_size + seq_out)));
  rows_counter.Increment(static_cast<int64_t>(rows * passes));

  const size_t n_chunks = (rows + kRolloutChunkRows - 1) / kRolloutChunkRows;
  if (scratch.chunks.size() < n_chunks) scratch.chunks.resize(n_chunks);
  // Chunks own disjoint rows of `out` and their own working set, so the
  // fan-out is race-free and the result thread-count independent.
  ParallelFor(n_chunks, [&](size_t ci) {
    FleetForecastScratch::Chunk& chunk = scratch.chunks[ci];
    chunk.window.resize(window_size * id);
    chunk.preds.resize(seq_out * od);
    double* window = chunk.window.data();
    double* last = window + (window_size - 1) * id;
    const size_t end = std::min(rows, (ci + 1) * kRolloutChunkRows);
    for (size_t r = ci * kRolloutChunkRows; r < end; ++r) {
      for (size_t t = 0; t < window_size; ++t) {
        const geo::Point n = grid.Normalize(recent_km[r][t]);
        window[t * id] = n.x;
        window[t * id + 1] = n.y;
        if (id == 3) window[t * id + 2] = scratch.observed_tod[t];
      }
      std::vector<geo::TimedPoint>& routine = (*out)[r];
      routine.clear();
      routine.reserve(horizon);
      while (routine.size() < horizon) {
        engine.Forward(*row_packs[r], window_size, window, chunk.preds.data(),
                       chunk.state);
        for (size_t s = 0; s < seq_out && routine.size() < horizon; ++s) {
          const double px = chunk.preds[s * od];
          const double py = chunk.preds[s * od + 1];
          const size_t i = routine.size();
          routine.push_back(
              {grid.Denormalize({px, py}),
               now_min + (static_cast<double>(i) + 1.0) * step_period_min});
          // Slide the window one step and append the prediction with its
          // future time of day, exactly like the scalar feedback loop.
          std::copy(window + id, window + window_size * id, window);
          last[0] = px;
          last[1] = py;
          if (id == 3) last[2] = scratch.future_tod[i];
        }
      }
    }
  });
}

void RolloutPredictBatch(
    const nn::BatchedSeq2Seq& engine,
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out) {
  const nn::PackedSeq2Seq packed(engine.config());
  if (scratch.packs.size() < row_params.size()) {
    scratch.packs.resize(row_params.size());
  }
  scratch.row_packs.resize(row_params.size());
  for (size_t r = 0; r < row_params.size(); ++r) {
    TAMP_CHECK(row_params[r] != nullptr);
    packed.Pack(*row_params[r], &scratch.packs[r]);
    scratch.row_packs[r] = &scratch.packs[r];
  }
  RolloutPredictBatch(packed, scratch.row_packs, recent_km, grid,
                      horizon_steps, now_min, step_period_min, scratch, out);
}

}  // namespace tamp::core
