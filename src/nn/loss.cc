#include "nn/loss.h"

#include <cstddef>

#include "common/check.h"

namespace tamp::nn {
namespace {

/// Number of flat prediction entries; checks the target/weight shapes.
size_t CheckShapes(const Sequence& target, const std::vector<double>& weights) {
  TAMP_CHECK(!target.empty());
  TAMP_CHECK(weights.empty() || weights.size() == target.size());
  size_t terms = 0;
  for (const auto& step : target) {
    TAMP_CHECK(!step.empty());
    terms += step.size();
  }
  return terms;
}

}  // namespace

double WeightedMseLoss::Value(const double* predicted, const Sequence& target,
                              const std::vector<double>& weights) {
  const size_t terms = CheckShapes(target, weights);
  double acc = 0.0;
  for (size_t t = 0; t < target.size(); ++t) {
    double w = weights.empty() ? 1.0 : weights[t];
    for (size_t d = 0; d < target[t].size(); ++d) {
      double diff = *predicted++ - target[t][d];
      acc += w * diff * diff;
    }
  }
  return acc / static_cast<double>(terms);
}

void WeightedMseLoss::Gradient(const double* predicted, const Sequence& target,
                               const std::vector<double>& weights,
                               double* grad) {
  double scale = 2.0 / static_cast<double>(CheckShapes(target, weights));
  for (size_t t = 0; t < target.size(); ++t) {
    double w = weights.empty() ? 1.0 : weights[t];
    for (size_t d = 0; d < target[t].size(); ++d) {
      *grad++ = scale * w * (*predicted++ - target[t][d]);
    }
  }
}

}  // namespace tamp::nn
