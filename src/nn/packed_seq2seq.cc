#include "nn/packed_seq2seq.h"

#include <algorithm>

#include "common/check.h"
#include "nn/activation.h"

namespace tamp::nn {
namespace {

/// dst = src^T for a row-major [rows x cols] block.
void Transpose(const double* src, size_t rows, size_t cols, double* dst) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < cols; ++k) dst[k * rows + r] = src[r * cols + k];
  }
}

}  // namespace

PackedSeq2Seq::PackedSeq2Seq(const Seq2SeqConfig& config)
    : config_(config),
      encoder_(config.input_dim, config.hidden_dim, /*offset=*/0),
      decoder_(config.output_dim, config.hidden_dim, encoder_.param_count()),
      readout_(config.hidden_dim, config.output_dim,
               encoder_.param_count() + decoder_.param_count()),
      param_count_(encoder_.param_count() + decoder_.param_count() +
                   readout_.param_count()),
      x_dim_(static_cast<size_t>(
          std::max(config.input_dim, config.output_dim))) {
  TAMP_CHECK(config.seq_out >= 1);
}

void PackedSeq2Seq::Pack(const std::vector<double>& params,
                         PackedSeq2SeqParams* out) const {
  TAMP_CHECK(out != nullptr);
  TAMP_CHECK(params.size() == param_count_);
  out->data.resize(param_count_);
  const double* src = params.data();
  double* dst = out->data.data();
  const size_t h4 = 4 * static_cast<size_t>(config_.hidden_dim);
  for (const LstmCell* cell : {&encoder_, &decoder_}) {
    const size_t id = static_cast<size_t>(cell->input_dim());
    const size_t hd = static_cast<size_t>(cell->hidden_dim());
    // W_x^T then W_h^T: one [(id + hd) x 4H] block, because W_h follows
    // W_x in both layouts. The bias stays where it is.
    const size_t wx = cell->offset();
    const size_t wh = wx + h4 * id;
    const size_t b = wh + h4 * hd;
    Transpose(src + wx, h4, id, dst + wx);
    Transpose(src + wh, h4, hd, dst + wh);
    std::copy(src + b, src + b + h4, dst + b);
  }
  const size_t in = static_cast<size_t>(readout_.in_dim());
  const size_t od = static_cast<size_t>(readout_.out_dim());
  const size_t w = readout_.offset();
  Transpose(src + w, od, in, dst + w);
  std::copy(src + w + od * in, src + w + od * in + od, dst + w + od * in);
}

void PackedSeq2Seq::CellStep(const LstmCell& cell, const double* packed,
                             PackedSeq2SeqState& state) const {
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  const size_t h4 = 4 * hd;
  const double* wt = packed + cell.offset();
  double* h = state.xh.data() + x_dim_;
  double* c = state.c.data();
  double* z = state.z.data();
  double* tanh_c = state.tanh_c.data();
  // z = [W_x^T ; W_h^T]^T [x | h] + b, gate blocks [i f g o], then the
  // element-wise update exactly as LstmCell::Forward runs it.
  GatePreactivationsKMajor(wt, wt + h4 * (id + hd), h - id, id + hd, h4, z);
  SigmoidInPlace(z, 2 * hd);  // i and f are adjacent.
  TanhInPlace(z + 2 * hd, hd);
  SigmoidInPlace(z + 3 * hd, hd);
  const double* i = z;
  const double* f = z + hd;
  const double* g = z + 2 * hd;
  const double* o = z + 3 * hd;
  for (size_t k = 0; k < hd; ++k) {
    c[k] = f[k] * c[k] + i[k] * g[k];
    tanh_c[k] = c[k];
  }
  TanhInPlace(tanh_c, hd);
  for (size_t k = 0; k < hd; ++k) h[k] = o[k] * tanh_c[k];
}

void PackedSeq2Seq::Forward(const PackedSeq2SeqParams& params, size_t seq_in,
                            const double* window, double* out,
                            PackedSeq2SeqState& state) const {
  TAMP_CHECK(params.data.size() == param_count_);
  TAMP_CHECK(seq_in >= 1);
  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  state.xh.resize(x_dim_ + hd);
  state.c.assign(hd, 0.0);
  state.z.resize(4 * hd);
  state.tanh_c.resize(hd);
  double* h = state.xh.data() + x_dim_;
  std::fill(h, h + hd, 0.0);

  const double* packed = params.data.data();
  for (size_t t = 0; t < seq_in; ++t) {
    std::copy(window + t * id, window + (t + 1) * id, h - id);
    CellStep(encoder_, packed, state);
  }

  // The decoder's first input is the last observed step resized to
  // output_dim (truncate or zero-pad, like EncoderDecoder::RunForward);
  // later inputs are the previous prediction.
  double* x = h - od;
  const double* last = window + (seq_in - 1) * id;
  for (size_t k = 0; k < od; ++k) x[k] = k < id ? last[k] : 0.0;
  const double* readout = packed + readout_.offset();
  for (size_t t = 0; t < seq_out; ++t) {
    CellStep(decoder_, packed, state);
    double* y = out + t * od;
    GatePreactivationsKMajor(readout, readout + hd * od, h, hd, od, y);
    if (t + 1 < seq_out) std::copy(y, y + od, x);
  }
}

}  // namespace tamp::nn
