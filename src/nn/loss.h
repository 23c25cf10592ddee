#pragma once

#include <vector>

namespace tamp::nn {

/// A sequence of D-dimensional vectors (model inputs, outputs, targets).
using Sequence = std::vector<std::vector<double>>;

/// Weighted mean-squared-error over an output sequence — Eq. 6 of the
/// paper:  L = (1/|r|) * sum_i f_w(l_i) * ||l_i - l̂_i||^2,
/// normalized additionally by the point dimensionality so losses are
/// comparable across output dims. With all weights equal to 1 this is the
/// plain MSE loss the baselines (KM-loss / PPI-loss) train with.
///
/// Predictions are flat: `predicted` holds the target's steps back to back
/// (step t has target[t].size() entries), the training kernel's layout.
///
/// Non-finite values propagate: a diverged predictor or a poisoned sample
/// yields a NaN/inf loss and gradient instead of ending the process. The
/// callers that can degrade test the batch loss and count it
/// (meta.nonfinite_losses): FineTune stops that worker, and a TAML pick
/// with a non-finite query loss contributes nothing to its leaf.
class WeightedMseLoss {
 public:
  /// Loss value. `weights` has one entry per sequence step; pass an empty
  /// vector for uniform (plain MSE) weights. `target` must be non-empty
  /// with non-empty steps.
  static double Value(const double* predicted, const Sequence& target,
                      const std::vector<double>& weights);

  /// Writes dL/d(predicted) into `grad` (same flat layout as `predicted`).
  static void Gradient(const double* predicted, const Sequence& target,
                       const std::vector<double>& weights, double* grad);
};

}  // namespace tamp::nn
