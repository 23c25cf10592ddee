#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace tamp::nn {

/// The backward kernels of a row-major weight block W [rows x cols]
/// under y = W x. Each is register-blocked in SSE2 lanes (eight sums in
/// flight, scalar tails for what the blocks leave) and keeps the serial
/// per-element order of a plain loop, so its results are bitwise the
/// scalar chains written below.
///
/// Input gradient of one step: out[k] = sum over r ascending of
/// v[r] * w[r * cols + k], each sum started from +0.0.
void TransposedMatVec(const double* w, size_t rows, size_t cols,
                      const double* v, double* out);

/// Weight gradient over `steps` steps, with dy step-major [step][rows] and
/// x step-major [step][cols]: for every (r, k) a register sum started from
/// +0.0 adds dy[t][r] * x[t][k] for t descending, then is written once as
/// grad[r * cols + k] += sum * scale.
void AccumulateWeightGradient(const double* dy, size_t rows, const double* x,
                              size_t cols, size_t steps, double scale,
                              double* grad);

/// Bias gradient over `steps` steps: grad[r] += (sum over t descending of
/// dy[t][r], started from +0.0) * scale.
void AccumulateBiasGradient(const double* dy, size_t rows, size_t steps,
                            double scale, double* grad);

/// A fully-connected layer y = W x + b whose parameters live in a caller-
/// provided flat vector at a fixed offset. The flat-parameter design lets
/// the meta-learning code clone/update whole models with plain vector
/// arithmetic (theta' = theta - beta * grad).
///
/// Layout at `offset`: W row-major [out_dim x in_dim], then b [out_dim].
class Linear {
 public:
  Linear(int in_dim, int out_dim, size_t offset);

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  size_t offset() const { return offset_; }
  size_t param_count() const {
    return static_cast<size_t>(out_dim_) * static_cast<size_t>(in_dim_) +
           static_cast<size_t>(out_dim_);
  }

  /// Xavier-initializes this layer's slice of `params`.
  void InitParams(Rng& rng, std::vector<double>& params) const;

  /// y = W x + b. `x` has in_dim entries; `y` receives out_dim.
  void Forward(const std::vector<double>& params, const double* x,
               double* y) const;

  /// State pass of one step: dx = W^T dy (TransposedMatVec). `dy` has
  /// out_dim entries, `dx` receives in_dim.
  void BackwardInput(const std::vector<double>& params, const double* dy,
                     double* dx) const;

  /// Weight pass over `steps` steps of inputs `x` [step][in_dim] and output
  /// gradients `dy` [step][out_dim]: adds scale times the W and b
  /// gradients into `grad`, each parameter written once.
  void WeightGradient(const double* x, const double* dy, size_t steps,
                      double scale, std::vector<double>& grad) const;

 private:
  int in_dim_;
  int out_dim_;
  size_t offset_;
};

}  // namespace tamp::nn
