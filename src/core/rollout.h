#pragma once

#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "nn/batched_seq2seq.h"
#include "nn/packed_seq2seq.h"

namespace tamp::core {

/// Cross-batch state for RolloutPredictBatch. Grow-only — the simulator
/// keeps one for its whole run, so steady-state batches are
/// allocation-free. Contents never influence results.
struct FleetForecastScratch {
  /// One worker chunk's working set: its window [seq_len][input_dim], one
  /// pass's predictions [seq_out][output_dim] and the LSTM state.
  struct Chunk {
    std::vector<double> window;
    std::vector<double> preds;
    nn::PackedSeq2SeqState state;
  };
  std::vector<Chunk> chunks;
  std::vector<double> observed_tod;  // Time of day of each window step.
  std::vector<double> future_tod;    // Time of day of each forecast step.

  // Per-row packs of the raw-parameter overload.
  std::vector<nn::PackedSeq2SeqParams> packs;
  std::vector<const nn::PackedSeq2SeqParams*> row_packs;
};

/// Continuously forecasts every worker's routine (Def. 3's "continuously
/// forecast w's subsequent mobility routine"), worker-major (DESIGN.md
/// §4i): each row's whole autoregressive rollout runs back to back on its
/// packed predictor. It encodes the row's `recent_km` window (km) and rolls
/// the decoder out for `horizon_steps` future positions, re-encoding its
/// own predictions, so the routine can span more steps than the model's
/// native seq_out. Predicted points carry timestamps
/// now + i * step_period_min. Row r's output is bitwise identical to the
/// scalar per-worker chain over EncoderDecoder::Predict
/// (tests/core_rollout_oracle.h). All rows must share one window length
/// (the simulator's observation window is uniform by construction).
/// `(*out)[r]` receives row r's horizon_steps points. Rows go in fixed
/// chunks of 64 under ParallelFor, so the result and the nn.* counters
/// (nn.forecast_cells, nn.batch_rows: the scalar path's cell steps and
/// Predict calls) do not depend on the thread count.
void RolloutPredictBatch(
    const nn::PackedSeq2Seq& engine,
    const std::vector<const nn::PackedSeq2SeqParams*>& row_packs,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out);

/// The same rollout for callers holding raw EncoderDecoder parameter
/// vectors (`engine` supplies the model shape): packs every row on each
/// call, then runs the overload above. A caller that forecasts one fleet
/// repeatedly should pack once instead, as BatchAssignStep does per
/// simulator run.
void RolloutPredictBatch(
    const nn::BatchedSeq2Seq& engine,
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out);

}  // namespace tamp::core
