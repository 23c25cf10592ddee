#include "nn/lstm_cell.h"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "nn/activation.h"
#include "nn/init.h"
#include "nn/linear.h"

namespace tamp::nn {

void GatePreactivations(const double* wx, const double* wh, const double* b,
                        const double* x, const double* h, size_t id,
                        size_t hd, double* z) {
  const size_t h4 = 4 * hd;
  size_t r = 0;
#if defined(__SSE2__)
  // Lane j of accumulator q owns row r + 2q + j. The serial chain of one
  // row is a latency-bound dependency; eight independent rows in flight
  // hide it without reordering any row's own additions.
  for (; r + 8 <= h4; r += 8) {
    __m128d acc[4];
    for (size_t q = 0; q < 4; ++q) acc[q] = _mm_loadu_pd(b + r + 2 * q);
    auto accumulate = [&acc](const double* w, size_t stride, double v) {
      const __m128d vk = _mm_set1_pd(v);
      for (size_t q = 0; q < 4; ++q) {
        const __m128d wq =
            _mm_set_pd(w[(2 * q + 1) * stride], w[2 * q * stride]);
        acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(wq, vk));
      }
    };
    for (size_t k = 0; k < id; ++k) accumulate(wx + r * id + k, id, x[k]);
    for (size_t k = 0; k < hd; ++k) accumulate(wh + r * hd + k, hd, h[k]);
    for (size_t q = 0; q < 4; ++q) _mm_storeu_pd(z + r + 2 * q, acc[q]);
  }
#endif
  // The 4H mod 8 tail rows (and every row without SSE2): the scalar chain.
  for (; r < h4; ++r) {
    double acc = b[r];
    const double* wxr = wx + r * id;
    for (size_t k = 0; k < id; ++k) acc += wxr[k] * x[k];
    const double* whr = wh + r * hd;
    for (size_t k = 0; k < hd; ++k) acc += whr[k] * h[k];
    z[r] = acc;
  }
}

namespace {

#if defined(__SSE2__)
/// Rows [r, r + 2Q) of GatePreactivationsKMajor: accumulator q owns rows
/// r + 2q and r + 2q + 1, and every k adds one contiguous pair of wt.
template <size_t Q>
void KMajorBlock(const double* wt, const double* b, const double* v,
                 size_t k_dim, size_t rows, size_t r, double* z) {
  __m128d acc[Q];
  for (size_t q = 0; q < Q; ++q) acc[q] = _mm_loadu_pd(b + r + 2 * q);
  const double* w = wt + r;
  for (size_t k = 0; k < k_dim; ++k, w += rows) {
    const __m128d vk = _mm_set1_pd(v[k]);
    for (size_t q = 0; q < Q; ++q) {
      acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(_mm_loadu_pd(w + 2 * q), vk));
    }
  }
  for (size_t q = 0; q < Q; ++q) _mm_storeu_pd(z + r + 2 * q, acc[q]);
}
#endif

}  // namespace

void GatePreactivationsKMajor(const double* wt, const double* b,
                              const double* v, size_t k_dim, size_t rows,
                              double* z) {
  size_t r = 0;
#if defined(__SSE2__)
  for (; r + 16 <= rows; r += 16) KMajorBlock<8>(wt, b, v, k_dim, rows, r, z);
  for (; r + 8 <= rows; r += 8) KMajorBlock<4>(wt, b, v, k_dim, rows, r, z);
  for (; r + 2 <= rows; r += 2) KMajorBlock<1>(wt, b, v, k_dim, rows, r, z);
#endif
  for (; r < rows; ++r) {
    double acc = b[r];
    for (size_t k = 0; k < k_dim; ++k) acc += wt[k * rows + r] * v[k];
    z[r] = acc;
  }
}

LstmCell::LstmCell(int input_dim, int hidden_dim, size_t offset)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), offset_(offset) {
  TAMP_CHECK(input_dim > 0 && hidden_dim > 0);
}

void LstmCell::InitParams(Rng& rng, std::vector<double>& params) const {
  TAMP_CHECK(params.size() >= offset_ + param_count());
  const size_t id = static_cast<size_t>(input_dim_);
  const size_t hd = static_cast<size_t>(hidden_dim_);
  const size_t h4 = 4 * hd;
  double* wx = params.data() + offset_;
  double* wh = wx + h4 * id;
  double* b = wh + h4 * hd;
  XavierUniform(rng, wx, h4 * id, input_dim_, hidden_dim_);
  XavierUniform(rng, wh, h4 * hd, hidden_dim_, hidden_dim_);
  Fill(b, h4, 0.0);
  // Forget-gate bias block (second of four) starts open.
  Fill(b + hd, hd, 1.0);
}

void LstmCell::ResizeTrace(LstmTrace& trace, size_t steps) const {
  const size_t hd = static_cast<size_t>(hidden_dim_);
  trace.x.resize(steps * static_cast<size_t>(input_dim_));
  trace.h_prev.resize(steps * hd);
  trace.c_prev.resize(steps * hd);
  trace.gates.resize(steps * 4 * hd);
  trace.tanh_c.resize(steps * hd);
}

void LstmCell::Forward(const std::vector<double>& params, const double* x,
                       double* h, double* c, LstmTrace& trace,
                       size_t step) const {
  const size_t id = static_cast<size_t>(input_dim_);
  const size_t hd = static_cast<size_t>(hidden_dim_);
  const size_t h4 = 4 * hd;
  TAMP_CHECK(trace.tanh_c.size() >= (step + 1) * hd);
  const double* wx = params.data() + offset_;
  const double* wh = wx + h4 * id;
  const double* b = wh + h4 * hd;
  double* tx = trace.x.data() + step * id;
  double* h_prev = trace.h_prev.data() + step * hd;
  double* c_prev = trace.c_prev.data() + step * hd;
  double* gates = trace.gates.data() + step * h4;
  double* tanh_c = trace.tanh_c.data() + step * hd;
  std::copy(x, x + id, tx);
  std::copy(h, h + hd, h_prev);
  std::copy(c, c + hd, c_prev);

  // z = W_x x + W_h h_prev + b, gate blocks [i f g o], computed into the
  // gate row and activated in place below.
  GatePreactivations(wx, wh, b, tx, h_prev, id, hd, gates);

  const double* i = gates;
  const double* f = gates + hd;
  const double* g = gates + 2 * hd;
  const double* o = gates + 3 * hd;
  SigmoidInPlace(gates, 2 * hd);  // i and f are adjacent.
  TanhInPlace(gates + 2 * hd, hd);
  SigmoidInPlace(gates + 3 * hd, hd);
  for (size_t k = 0; k < hd; ++k) {
    c[k] = f[k] * c_prev[k] + i[k] * g[k];
    tanh_c[k] = c[k];
  }
  TanhInPlace(tanh_c, hd);
  for (size_t k = 0; k < hd; ++k) h[k] = o[k] * tanh_c[k];
}

void LstmCell::BackwardState(const std::vector<double>& params,
                             const LstmTrace& trace, size_t step, double* dh,
                             double* dc, double* dz) const {
  const size_t id = static_cast<size_t>(input_dim_);
  const size_t hd = static_cast<size_t>(hidden_dim_);
  const size_t h4 = 4 * hd;
  TAMP_CHECK(trace.tanh_c.size() >= (step + 1) * hd);
  const double* wh = params.data() + offset_ + h4 * id;
  const double* c_prev = trace.c_prev.data() + step * hd;
  const double* gates = trace.gates.data() + step * h4;
  const double* tanh_c = trace.tanh_c.data() + step * hd;

  // Gate pre-activation gradients dz, blocks [i f g o]; dc becomes the
  // gradient w.r.t. c_prev.
  for (size_t k = 0; k < hd; ++k) {
    double i = gates[k], f = gates[hd + k], g = gates[2 * hd + k],
           o = gates[3 * hd + k];
    double tc = tanh_c[k];
    double d_o = dh[k] * tc;
    double d_c = dc[k] + dh[k] * o * (1.0 - tc * tc);
    double d_i = d_c * g;
    double d_f = d_c * c_prev[k];
    double d_g = d_c * i;
    dz[k] = d_i * i * (1.0 - i);
    dz[hd + k] = d_f * f * (1.0 - f);
    dz[2 * hd + k] = d_g * (1.0 - g * g);
    dz[3 * hd + k] = d_o * o * (1.0 - o);
    dc[k] = d_c * f;
  }

  // dh is fully consumed above; it becomes the h_prev gradient W_h^T dz.
  TransposedMatVec(wh, h4, hd, dz, dh);
}

void LstmCell::WeightGradient(const LstmTrace& trace, const double* dz,
                              size_t steps, double scale,
                              std::vector<double>& grad) const {
  TAMP_CHECK(grad.size() >= offset_ + param_count());
  const size_t id = static_cast<size_t>(input_dim_);
  const size_t hd = static_cast<size_t>(hidden_dim_);
  const size_t h4 = 4 * hd;
  TAMP_CHECK(trace.tanh_c.size() >= steps * hd);
  double* dwx = grad.data() + offset_;
  double* dwh = dwx + h4 * id;
  double* db = dwh + h4 * hd;
  AccumulateWeightGradient(dz, h4, trace.x.data(), id, steps, scale, dwx);
  AccumulateWeightGradient(dz, h4, trace.h_prev.data(), hd, steps, scale,
                           dwh);
  AccumulateBiasGradient(dz, h4, steps, scale, db);
}

}  // namespace tamp::nn
