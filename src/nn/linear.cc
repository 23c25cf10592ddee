#include "nn/linear.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "nn/init.h"

namespace tamp::nn {

void TransposedMatVec(const double* w, size_t rows, size_t cols,
                      const double* v, double* out) {
  size_t k = 0;
#if defined(__SSE2__)
  // Lane j of accumulator q owns column k + 2q + j. Each column's serial
  // chain over r is latency-bound; eight columns in flight hide it without
  // reordering any column's own additions.
  for (; k + 8 <= cols; k += 8) {
    __m128d acc[4];
    for (size_t q = 0; q < 4; ++q) acc[q] = _mm_setzero_pd();
    for (size_t r = 0; r < rows; ++r) {
      const __m128d vr = _mm_set1_pd(v[r]);
      const double* wr = w + r * cols + k;
      for (size_t q = 0; q < 4; ++q) {
        acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(vr, _mm_loadu_pd(wr + 2 * q)));
      }
    }
    for (size_t q = 0; q < 4; ++q) _mm_storeu_pd(out + k + 2 * q, acc[q]);
  }
#endif
  // The cols mod 8 tail columns (and every column without SSE2).
  for (; k < cols; ++k) {
    double acc = 0.0;
    for (size_t r = 0; r < rows; ++r) acc += v[r] * w[r * cols + k];
    out[k] = acc;
  }
}

void AccumulateWeightGradient(const double* dy, size_t rows, const double* x,
                              size_t cols, size_t steps, double scale,
                              double* grad) {
  // One (r, k) entry as the serial chain; every entry the SSE2 blocks
  // below do not cover (and every entry without SSE2) takes this path.
  auto scalar_entry = [&](size_t r, size_t k) {
    double acc = 0.0;
    for (size_t t = steps; t-- > 0;) acc += dy[t * rows + r] * x[t * cols + k];
    grad[r * cols + k] += acc * scale;
  };
  size_t k = 0;
#if defined(__SSE2__)
  const __m128d vs = _mm_set1_pd(scale);
  // Eight columns of two rows at a time: lane j of accumulator q owns
  // column k + 2q + j of row r (acc0) and of row r + 1 (acc1). Every sum
  // stays in registers across all steps and touches `grad` once.
  auto flush = [&](const __m128d* acc, double* g) {
    for (size_t q = 0; q < 4; ++q) {
      _mm_storeu_pd(g + 2 * q, _mm_add_pd(_mm_loadu_pd(g + 2 * q),
                                          _mm_mul_pd(acc[q], vs)));
    }
  };
  for (; k + 8 <= cols; k += 8) {
    size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      __m128d acc0[4], acc1[4];
      for (size_t q = 0; q < 4; ++q) acc0[q] = acc1[q] = _mm_setzero_pd();
      for (size_t t = steps; t-- > 0;) {
        const __m128d d0 = _mm_set1_pd(dy[t * rows + r]);
        const __m128d d1 = _mm_set1_pd(dy[t * rows + r + 1]);
        const double* xt = x + t * cols + k;
        for (size_t q = 0; q < 4; ++q) {
          const __m128d xq = _mm_loadu_pd(xt + 2 * q);
          acc0[q] = _mm_add_pd(acc0[q], _mm_mul_pd(d0, xq));
          acc1[q] = _mm_add_pd(acc1[q], _mm_mul_pd(d1, xq));
        }
      }
      flush(acc0, grad + r * cols + k);
      flush(acc1, grad + (r + 1) * cols + k);
    }
    for (; r < rows; ++r) {
      for (size_t kk = k; kk < k + 8; ++kk) scalar_entry(r, kk);
    }
  }
#endif
  // The cols mod 8 tail columns. With SSE2, eight rows of one column at a
  // time: lane j of accumulator q owns row r + 2q + j, so narrow blocks
  // such as W_x (cols = 2 or 3) still keep eight sums in flight.
  for (; k < cols; ++k) {
    size_t r = 0;
#if defined(__SSE2__)
    for (; r + 8 <= rows; r += 8) {
      __m128d acc[4];
      for (size_t q = 0; q < 4; ++q) acc[q] = _mm_setzero_pd();
      for (size_t t = steps; t-- > 0;) {
        const __m128d xk = _mm_set1_pd(x[t * cols + k]);
        const double* dt = dy + t * rows + r;
        for (size_t q = 0; q < 4; ++q) {
          acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(_mm_loadu_pd(dt + 2 * q), xk));
        }
      }
      for (size_t q = 0; q < 4; ++q) {
        double lanes[2];
        _mm_storeu_pd(lanes, _mm_mul_pd(acc[q], vs));
        grad[(r + 2 * q) * cols + k] += lanes[0];
        grad[(r + 2 * q + 1) * cols + k] += lanes[1];
      }
    }
#endif
    for (; r < rows; ++r) scalar_entry(r, k);
  }
}

void AccumulateBiasGradient(const double* dy, size_t rows, size_t steps,
                            double scale, double* grad) {
  size_t r = 0;
#if defined(__SSE2__)
  // Lane j of accumulator q owns row r + 2q + j.
  const __m128d vs = _mm_set1_pd(scale);
  for (; r + 8 <= rows; r += 8) {
    __m128d acc[4];
    for (size_t q = 0; q < 4; ++q) acc[q] = _mm_setzero_pd();
    for (size_t t = steps; t-- > 0;) {
      const double* dt = dy + t * rows + r;
      for (size_t q = 0; q < 4; ++q) {
        acc[q] = _mm_add_pd(acc[q], _mm_loadu_pd(dt + 2 * q));
      }
    }
    for (size_t q = 0; q < 4; ++q) {
      double* g = grad + r + 2 * q;
      _mm_storeu_pd(g, _mm_add_pd(_mm_loadu_pd(g), _mm_mul_pd(acc[q], vs)));
    }
  }
#endif
  for (; r < rows; ++r) {
    double acc = 0.0;
    for (size_t t = steps; t-- > 0;) acc += dy[t * rows + r];
    grad[r] += acc * scale;
  }
}

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

void Linear::BackwardInput(const std::vector<double>& params,
                           const double* dy, double* dx) const {
  TransposedMatVec(params.data() + offset_, static_cast<size_t>(out_dim_),
                   static_cast<size_t>(in_dim_), dy, dx);
}

void Linear::WeightGradient(const double* x, const double* dy, size_t steps,
                            double scale, std::vector<double>& grad) const {
  TAMP_CHECK(grad.size() >= offset_ + param_count());
  const size_t in = static_cast<size_t>(in_dim_);
  const size_t out = static_cast<size_t>(out_dim_);
  double* dw = grad.data() + offset_;
  AccumulateWeightGradient(dy, out, x, in, steps, scale, dw);
  AccumulateBiasGradient(dy, out, steps, scale, dw + out * in);
}

}  // namespace tamp::nn
