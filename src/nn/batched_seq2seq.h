#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "nn/encoder_decoder.h"

namespace tamp::nn {

/// Reusable state for BatchedSeq2Seq (DESIGN.md §4i). Grow-only: holding
/// one scratch across batches (the simulator keeps one for the whole run)
/// amortizes every buffer here.
/// Contents never influence results — each Forward fully overwrites what
/// it reads — so reuse is bit-safe by construction.
struct BatchedSeq2SeqScratch {
  /// One contiguous column range of rows sharing one parameter vector: the
  /// weight element is a loop invariant across the tile's columns (a true
  /// GEMM; a single-row group is a one-column tile).
  struct Tile {
    size_t begin = 0;
    size_t end = 0;
    const std::vector<double>* params = nullptr;
  };

  // Batch plan, rebuilt by every Forward.
  std::vector<int> col_row;  // column -> caller row index.
  std::vector<Tile> tiles;
  // Grouping helpers (the map is lookup-only, never iterated).
  std::unordered_map<const std::vector<double>*, size_t> group_index;
  std::vector<std::vector<int>> group_rows;

  // SoA state, feature-major [feature][column] with the batch width as
  // stride so the per-worker inner loops are contiguous.
  std::vector<double> x;    // Current step inputs.
  std::vector<double> h;    // Hidden state.
  std::vector<double> c;    // Cell state.
  std::vector<double> z;    // Gate pre-activations [4H][W].
  std::vector<double> out;  // Decoder outputs [seq_out][output_dim][W].

  // PredictBatch packing buffers.
  std::vector<double> pack_in;
  std::vector<double> pack_out;
};

/// Batched LSTM encoder-decoder inference for rows that share parameters
/// (MobilityTrainer::Evaluate runs each worker's eval samples as one
/// batch): packs every row's hidden and cell state plus per-step inputs
/// into structure-of-arrays matrices and runs each encoder/decoder
/// timestep as one gate GEMM per column tile instead of one
/// LstmCell::Forward chain per row. The fleet forecast, where every worker
/// has its own parameters, runs worker-major on nn::PackedSeq2Seq instead
/// (DESIGN.md §4i).
///
/// Rows are grouped by parameter-vector identity (first-occurrence order,
/// deterministic); each group is laid out as tiles of at most kTileCols
/// columns, independent of the thread count, so the nn.* work counters
/// are thread-invariant.
///
/// Bit-identity contract: for every output element the floating-point
/// operation chain is exactly the scalar path's — acc starts at b[r],
/// accumulates W_x row r against the input in ascending k, then W_h row r
/// against h_prev in ascending k; gates apply the same element-wise
/// SigmoidInPlace/TanhInPlace kernel (nn/activation.h). Batching only
/// interchanges loops *across* independent elements, so predictions are
/// bitwise identical to EncoderDecoder::Predict (asserted by
/// tests/nn_batched_forecast_test.cc at 1 and 4 threads).
class BatchedSeq2Seq {
 public:
  explicit BatchedSeq2Seq(const Seq2SeqConfig& config);

  const Seq2SeqConfig& config() const { return config_; }
  size_t param_count() const { return param_count_; }

  /// Columns per tile. Fixed (not derived from the thread count) so the
  /// deterministic work counters gate exact values in the bench JSON.
  static constexpr size_t kTileCols = 64;

  /// One batched encode+decode pass. `row_params[r]` is row r's full
  /// parameter vector (EncoderDecoder layout, param_count() long).
  /// `inputs` is caller-row-ordered SoA [seq_in][input_dim][R]; `outputs`
  /// (caller-allocated, [seq_out][output_dim][R]) receives the seq_out
  /// predicted steps per row. Increments nn.forecast_cells /
  /// nn.batched_gemm_calls / nn.batch_rows.
  void Forward(const std::vector<const std::vector<double>*>& row_params,
               int seq_in, const double* inputs, double* outputs,
               BatchedSeq2SeqScratch& scratch) const;

  /// Sequence-level convenience wrapper over Forward for callers holding
  /// per-row nn::Sequence inputs (meta evaluation, tests). All inputs must
  /// share one length. `(*outputs)[r]` is bitwise identical to
  /// EncoderDecoder::Predict(*row_params[r], *inputs[r]).
  void PredictBatch(const std::vector<const std::vector<double>*>& row_params,
                    const std::vector<const Sequence*>& inputs,
                    std::vector<Sequence>* outputs,
                    BatchedSeq2SeqScratch& scratch) const;

 private:
  void PlanBatch(const std::vector<const std::vector<double>*>& row_params,
                 BatchedSeq2SeqScratch& scratch) const;

  /// Runs the whole encode+decode for one tile's column range. Tiles touch
  /// disjoint columns of the shared SoA buffers, so they fan out across
  /// the deterministic pool with no synchronization.
  void RunTile(const BatchedSeq2SeqScratch::Tile& tile, size_t width,
               int seq_in, const double* inputs,
               BatchedSeq2SeqScratch& scratch) const;

  /// z = W_x x + W_h h + b for one tile (a GEMM over its columns), then
  /// the element-wise gate update of h/c.
  void CellStep(const LstmCell& cell,
                const BatchedSeq2SeqScratch::Tile& tile, size_t width,
                BatchedSeq2SeqScratch& scratch) const;

  /// Readout y = W h + b for one tile into `dst` [output_dim][width].
  void ReadoutStep(const BatchedSeq2SeqScratch::Tile& tile, size_t width,
                   double* dst, BatchedSeq2SeqScratch& scratch) const;

  Seq2SeqConfig config_;
  LstmCell encoder_;
  LstmCell decoder_;
  Linear readout_;
  size_t param_count_;
};

}  // namespace tamp::nn
