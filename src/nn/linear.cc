#include "nn/linear.h"

#include "common/check.h"
#include "nn/init.h"

namespace tamp::nn {

Linear::Linear(int in_dim, int out_dim, size_t offset)
    : in_dim_(in_dim), out_dim_(out_dim), offset_(offset) {
  TAMP_CHECK(in_dim > 0 && out_dim > 0);
}

void Linear::InitParams(Rng& rng, std::vector<double>& params) const {
  TAMP_CHECK(params.size() >= offset_ + param_count());
  size_t w_count = static_cast<size_t>(out_dim_) * static_cast<size_t>(in_dim_);
  XavierUniform(rng, params.data() + offset_, w_count, in_dim_, out_dim_);
  Fill(params.data() + offset_ + w_count, static_cast<size_t>(out_dim_), 0.0);
}

void Linear::Forward(const std::vector<double>& params, const double* x,
                     double* y) const {
  const size_t in = static_cast<size_t>(in_dim_);
  const size_t out = static_cast<size_t>(out_dim_);
  const double* w = params.data() + offset_;
  const double* b = w + out * in;
  for (size_t r = 0; r < out; ++r) {
    double acc = b[r];
    const double* wr = w + r * in;
    for (size_t c = 0; c < in; ++c) acc += wr[c] * x[c];
    y[r] = acc;
  }
}

void Linear::Backward(const std::vector<double>& params, const double* x,
                      const double* dy, std::vector<double>& grad,
                      double* dx) const {
  TAMP_CHECK(grad.size() == params.size());
  const size_t in = static_cast<size_t>(in_dim_);
  const size_t out = static_cast<size_t>(out_dim_);
  const double* w = params.data() + offset_;
  double* dw = grad.data() + offset_;
  double* db = dw + out * in;
  if (dx != nullptr) {
    for (size_t c = 0; c < in; ++c) dx[c] = 0.0;
  }
  for (size_t r = 0; r < out; ++r) {
    double g = dy[r];
    db[r] += g;
    const double* wr = w + r * in;
    double* dwr = dw + r * in;
    for (size_t c = 0; c < in; ++c) {
      dwr[c] += g * x[c];
      if (dx != nullptr) dx[c] += g * wr[c];
    }
  }
}

}  // namespace tamp::nn
