#pragma once

#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "nn/batched_seq2seq.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {

/// Cross-batch state for RolloutPredictBatch: the engine scratch plus the
/// fleet-wide SoA sliding window and prediction buffers. Grow-only — the
/// simulator keeps one for its whole run, so steady-state batches are
/// allocation-free.
struct FleetForecastScratch {
  nn::BatchedSeq2SeqScratch engine;
  std::vector<double> window;  // [seq_len][input_dim][rows], row-ordered.
  std::vector<double> preds;   // [seq_out][output_dim][rows].
};

/// Continuously forecasts every worker's routine (Def. 3's "continuously
/// forecast w's subsequent mobility routine") in one autoregressive
/// rollout for all rows through the SoA BatchedSeq2Seq engine: encodes
/// each row's `recent_km` window (km) and rolls the decoder out for
/// `horizon_steps` future positions, re-encoding its own predictions, so
/// the routine can span more steps than the model's native seq_out.
/// Predicted points carry timestamps now + i * step_period_min. Row r's
/// output is bitwise identical to the scalar per-worker chain over
/// EncoderDecoder::Predict (tests/core_rollout_oracle.h). All rows must
/// share one window length (the simulator's observation window is uniform
/// by construction). `(*out)[r]` receives row r's horizon_steps points.
void RolloutPredictBatch(
    const nn::BatchedSeq2Seq& engine,
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out);

}  // namespace tamp::core
