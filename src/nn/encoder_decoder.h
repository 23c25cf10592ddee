#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm_cell.h"

namespace tamp::nn {

/// Architecture of the mobility prediction model (Section III-B
/// "Discussion"): an LSTM encoder over the seq_in observed locations, an
/// LSTM decoder rolled out for seq_out future steps, and a linear read-out
/// producing a location per decoder step.
struct Seq2SeqConfig {
  int input_dim = 2;    // (x, y), normalized into [0,1].
  int hidden_dim = 16;  // LSTM state width.
  int output_dim = 2;   // Predicted (x, y).
  int seq_out = 1;      // Number of future locations to emit.
};

/// Reusable buffers for EncoderDecoder's passes: the flat step-major BPTT
/// caches of both cells, the decoder's hidden states, outputs and output
/// gradients ([seq_out][width] each), and the backward buffers.
/// Without one, every call allocates them afresh; a scratch persisted
/// across calls (shrink-then-grow safe, any model shape) makes
/// LossAndGradient and EvalLoss allocation-free. Results are bitwise
/// identical with or without one.
struct TrainScratch {
  LstmTrace enc;
  LstmTrace dec;
  std::vector<double> h;           // Recurrent hidden state [H].
  std::vector<double> c;           // Recurrent cell state [H].
  std::vector<double> dec_input;   // Current decoder input [output_dim].
  std::vector<double> dec_hidden;  // [seq_out][H] decoder hidden states.
  std::vector<double> outputs;     // [seq_out][output_dim] predictions.
  std::vector<double> dout;        // [seq_out][output_dim] dLoss/doutputs.
  // State-pass carries: dh, dc and dh_step are [H].
  std::vector<double> dh;
  std::vector<double> dc;
  std::vector<double> dh_step;
  // Gate gradients the state pass leaves for the weight pass: [seq_in][4H]
  // and [seq_out][4H].
  std::vector<double> enc_dz;
  std::vector<double> dec_dz;
};

/// The gradient-free passes (Predict, EvalLoss) fill the forward half of
/// the same buffers.
using PredictScratch = TrainScratch;

/// LSTM-Encoder-Decoder mobility prediction model with hand-written
/// backpropagation-through-time.
///
/// The model is *stateless*: all weights live in a flat caller-owned
/// std::vector<double> whose layout this class defines. This makes the
/// meta-learning algorithms (MAML / TAML) plain vector arithmetic: clone the
/// vector, adapt it with Sgd, compute a query gradient against it. Gradients
/// produced here are exact (validated against finite differences in
/// tests/nn_gradient_check_test.cc).
class EncoderDecoder {
 public:
  explicit EncoderDecoder(const Seq2SeqConfig& config);

  const Seq2SeqConfig& config() const { return config_; }
  size_t param_count() const { return param_count_; }

  /// Freshly initialized parameter vector (Xavier weights, forget bias 1).
  std::vector<double> InitParams(Rng& rng) const;

  /// Autoregressive inference: encodes `input_seq` (>= 1 steps of
  /// input_dim values) and decodes config().seq_out future points, feeding
  /// each prediction back as the next decoder input. `scratch` (optional)
  /// reuses buffers across calls.
  Sequence Predict(const std::vector<double>& params,
                   const Sequence& input_seq,
                   PredictScratch* scratch = nullptr) const;

  /// Teacher-forced training pass on one (input, target) sample: runs the
  /// forward pass, computes the weighted MSE (Eq. 6; empty `step_weights`
  /// means plain MSE), and adds `scale` times dLoss/dparams into `grad`
  /// (which must be param_count() long). Returns the loss value.
  /// `scratch` (optional) reuses the BPTT buffers across calls.
  ///
  /// BPTT runs in two passes. The state pass walks the steps backwards
  /// (decoder, then encoder) carrying dh/dc and keeps each step's gate
  /// gradients; the weight pass then sums every parameter's gradient over
  /// its module's steps in registers, starting from +0.0, and writes it
  /// once as grad[i] += sum * scale. On a zeroed `grad` with scale = 1
  /// the result is bitwise the per-step accumulation into `grad`; with
  /// scale = 1/N per sample it is bitwise the fold "zero a sample
  /// gradient, accumulate it, add it times 1/N".
  double LossAndGradient(const std::vector<double>& params,
                         const Sequence& input_seq, const Sequence& target_seq,
                         const std::vector<double>& step_weights,
                         std::vector<double>& grad,
                         TrainScratch* scratch = nullptr,
                         double scale = 1.0) const;

  /// Loss of the autoregressive prediction against the target (no
  /// gradient); used for held-out evaluation. With a `scratch` the call is
  /// allocation-free.
  double EvalLoss(const std::vector<double>& params, const Sequence& input_seq,
                  const Sequence& target_seq,
                  const std::vector<double>& step_weights,
                  PredictScratch* scratch = nullptr) const;

 private:
  /// Shared forward pass. When `teacher_targets` is non-null the decoder
  /// consumes ground-truth previous locations (training); otherwise it
  /// consumes its own predictions (inference). Fills the forward half of
  /// `scratch`: both cell traces, dec_hidden and outputs.
  void RunForward(const std::vector<double>& params,
                  const Sequence& input_seq, const Sequence* teacher_targets,
                  TrainScratch& scratch) const;

  /// Checks `target_seq` is seq_out steps of output_dim entries each.
  void CheckTargetShape(const Sequence& target_seq) const;

  Seq2SeqConfig config_;
  LstmCell encoder_;
  LstmCell decoder_;
  Linear readout_;
  size_t param_count_;
};

}  // namespace tamp::nn
