#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace tamp::nn {

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

  /// Accumulates parameter gradients into `grad` and (if dx != nullptr)
  /// writes the input gradient. `dy` has out_dim entries; `x` is the input
  /// from the forward pass.
  void Backward(const std::vector<double>& params, const double* x,
                const double* dy, std::vector<double>& grad,
                double* dx) const;

 private:
  int in_dim_;
  int out_dim_;
  size_t offset_;
};

}  // namespace tamp::nn
