#pragma once

#include <cstddef>
#include <vector>

#include "nn/encoder_decoder.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"

namespace tamp::nn {

/// One EncoderDecoder parameter vector repacked for the worker-major fleet
/// forecast (DESIGN.md §4i). Same length and block offsets as the
/// EncoderDecoder layout, with every weight matrix transposed to k-major:
///   encoder  [W_x^T ; W_h^T]  [(I + H) x 4H], then b [4H]
///   decoder  [W_x^T ; W_h^T]  [(O + H) x 4H], then b [4H]
///   readout  W^T              [H x O],        then b [O]
/// so each layer is one contiguous k-major block for
/// GatePreactivationsKMajor.
struct PackedSeq2SeqParams {
  std::vector<double> data;
};

/// One row's recurrent working set for PackedSeq2Seq::Forward. Grow-only;
/// Forward overwrites everything it reads, so reuse is bit-safe.
struct PackedSeq2SeqState {
  /// [max(I, O) | H]: each step's input is written to end right where h
  /// begins, so [x | h] is one contiguous kernel operand for either cell.
  std::vector<double> xh;
  std::vector<double> c;       // Cell state [H].
  std::vector<double> z;       // Gate pre-activations / activations [4H].
  std::vector<double> tanh_c;  // tanh(c) [H].
};

/// Single-row LSTM encoder-decoder inference over packed parameters: the
/// forecast engine of core::RolloutPredictBatch. One call runs one row's
/// whole encode+decode back to back, so the row's ≈ 20 KB of weights stay
/// in L1 across its cell steps.
///
/// Bit-identity contract: every output is EncoderDecoder::Predict's (a NaN
/// only stays NaN: its payload follows the compiler's operand order). Each
/// gate row starts at b[r], adds W_x in ascending k, then W_h in ascending
/// k (GatePreactivationsKMajor on v = [x | h]); the gates, cell update and
/// readout are LstmCell::Forward's and Linear::Forward's element-wise
/// chains (tests/nn_batched_forecast_test.cc, core_rollout_oracle.h).
class PackedSeq2Seq {
 public:
  explicit PackedSeq2Seq(const Seq2SeqConfig& config);

  const Seq2SeqConfig& config() const { return config_; }

  /// Packs `params` (EncoderDecoder layout, param_count() long) into
  /// `out`, reusing its storage.
  void Pack(const std::vector<double>& params, PackedSeq2SeqParams* out) const;

  /// One encode+decode pass for one row. `window` is [seq_in][input_dim]
  /// and `out` receives [seq_out][output_dim], both row-major.
  void Forward(const PackedSeq2SeqParams& params, size_t seq_in,
               const double* window, double* out,
               PackedSeq2SeqState& state) const;

 private:
  /// One LSTM step of `cell` on state.xh's last in_dim + H entries.
  void CellStep(const LstmCell& cell, const double* packed,
                PackedSeq2SeqState& state) const;

  Seq2SeqConfig config_;
  LstmCell encoder_;
  LstmCell decoder_;
  Linear readout_;
  size_t param_count_;
  size_t x_dim_;  // max(input_dim, output_dim).
};

}  // namespace tamp::nn
