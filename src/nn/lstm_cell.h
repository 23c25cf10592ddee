#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace tamp::nn {

/// Flat BPTT activation trace of one LstmCell over a sequence, written by
/// LstmCell::Forward and consumed by BackwardState and WeightGradient.
/// Every field is one contiguous step-major [step][width] array;
/// LstmCell::ResizeTrace only grows capacity, so a trace reused across
/// calls makes the forward and backward passes allocation-free.
struct LstmTrace {
  std::vector<double> x;       // [step][input_dim] input.
  std::vector<double> h_prev;  // [step][H] hidden state entering the step.
  std::vector<double> c_prev;  // [step][H] cell state entering the step.
  std::vector<double> gates;   // [step][4H] post-activation [i f g o].
  std::vector<double> tanh_c;  // [step][H] tanh(c), reused in backward.
};

/// The LSTM gate kernel of LstmCell::Forward (training): for r in
/// [0, 4 * hd),
///   z[r] = b[r] + sum_k wx[r * id + k] * x[k] + sum_k wh[r * hd + k] * h[k]
/// with wx/wh row-major as in the LstmCell layout. Rows go 8 at a time in
/// SSE2 lanes, one row per lane; each lane adds its products in ascending
/// k with a separate multiply and add, so every z[r] is bitwise the serial
/// scalar chain (tests/nn_gate_oracle.h).
void GatePreactivations(const double* wx, const double* wh, const double* b,
                        const double* x, const double* h, size_t id,
                        size_t hd, double* z);

/// The same chain on k-major weights, the fleet forecast's gate kernel
/// (nn::PackedSeq2Seq): for r in [0, rows),
///   z[r] = b[r] + sum_k wt[k * rows + r] * v[k],   k ascending.
/// With wt = [W_x^T ; W_h^T] ([(id + hd)][4 * hd]) and v = [x | h] this is
/// GatePreactivations' chain bit for bit; with wt = W^T of a Linear it is
/// Linear::Forward's. Rows go 16 at a time (eight SSE2 accumulators fed by
/// contiguous loads of one k-row of wt), then 8, then 2, then a scalar
/// tail, each lane adding w * v with a separate multiply and add.
void GatePreactivationsKMajor(const double* wt, const double* b,
                              const double* v, size_t k_dim, size_t rows,
                              double* z);

/// A single LSTM cell with parameters stored in a caller-provided flat
/// vector (see Linear for the rationale). Gate order in the packed weight
/// blocks is [input, forget, candidate, output].
///
/// Layout at `offset`:
///   W_x  [4H x I]  row-major
///   W_h  [4H x H]  row-major
///   b    [4H]
class LstmCell {
 public:
  LstmCell(int input_dim, int hidden_dim, size_t offset);

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }
  size_t offset() const { return offset_; }
  size_t param_count() const {
    size_t h = static_cast<size_t>(hidden_dim_);
    size_t h4 = 4 * h;
    return h4 * static_cast<size_t>(input_dim_) + h4 * h + h4;
  }

  /// Xavier weights; forget-gate bias initialized to 1.
  void InitParams(Rng& rng, std::vector<double>& params) const;

  /// Sizes `trace` for `steps` timesteps (contents unspecified).
  void ResizeTrace(LstmTrace& trace, size_t steps) const;

  /// One timestep. `x` has input_dim entries; `h`/`c` (hidden_dim each)
  /// are the recurrent state and are updated in place. Records the step's
  /// activations in row `step` of `trace` for the backward pass.
  void Forward(const std::vector<double>& params, const double* x, double* h,
               double* c, LstmTrace& trace, size_t step) const;

  /// State pass of BPTT through row `step` of `trace`. `dh`/`dc`
  /// (hidden_dim each) carry the gradient w.r.t. the step's outputs and are
  /// replaced with the gradient w.r.t. the incoming h_prev/c_prev; `dz`
  /// (4 * hidden_dim) receives the step's gate pre-activation gradients
  /// [i f g o], which WeightGradient consumes. Writes no parameter
  /// gradient.
  void BackwardState(const std::vector<double>& params,
                     const LstmTrace& trace, size_t step, double* dh,
                     double* dc, double* dz) const;

  /// Weight pass over the first `steps` rows of `trace`, with `dz` the
  /// step-major [step][4H] gate gradients of BackwardState: adds scale
  /// times the W_x, W_h and b gradients into `grad`. Every parameter's
  /// sum starts from +0.0, adds its steps in descending order in
  /// registers and is written once (AccumulateWeightGradient).
  void WeightGradient(const LstmTrace& trace, const double* dz, size_t steps,
                      double scale, std::vector<double>& grad) const;

 private:
  int input_dim_;
  int hidden_dim_;
  size_t offset_;
};

}  // namespace tamp::nn
