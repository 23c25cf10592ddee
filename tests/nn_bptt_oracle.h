#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/encoder_decoder.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm_cell.h"

namespace tamp::nn::testing {

/// The per-step, gradient-writing BPTT step that EncoderDecoder's
/// two-pass backward replaced, kept verbatim as the oracle: backward
/// through row `step` of `trace`, replacing `dh`/`dc` with the h_prev /
/// c_prev gradients (`dz` is 4H scratch) and accumulating the step's
/// parameter gradients straight into `grad`. Only the parameter and trace
/// layouts come from src/; the arithmetic is all here.
inline void OracleLstmBackward(const LstmCell& cell,
                               const std::vector<double>& params,
                               const LstmTrace& trace, size_t step,
                               double* dh, double* dc, double* dz,
                               std::vector<double>& grad) {
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  const size_t h4 = 4 * hd;
  const double* wh = params.data() + cell.offset() + h4 * id;
  double* dwx = grad.data() + cell.offset();
  double* dwh = dwx + h4 * id;
  double* db = dwh + h4 * hd;
  const double* x = trace.x.data() + step * id;
  const double* h_prev = trace.h_prev.data() + step * hd;
  const double* c_prev = trace.c_prev.data() + step * hd;
  const double* gates = trace.gates.data() + step * h4;
  const double* tanh_c = trace.tanh_c.data() + step * hd;

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

  std::fill(dh, dh + hd, 0.0);
  for (size_t r = 0; r < h4; ++r) {
    double gz = dz[r];
    db[r] += gz;
    double* dwxr = dwx + r * id;
    for (size_t k = 0; k < id; ++k) dwxr[k] += gz * x[k];
    const double* whr = wh + r * hd;
    double* dwhr = dwh + r * hd;
    for (size_t k = 0; k < hd; ++k) {
      dwhr[k] += gz * h_prev[k];
      dh[k] += gz * whr[k];
    }
  }
}

/// The per-step Linear backward the weight pass replaced: accumulates the
/// W and b gradients of one step into `grad` and, when `dx` is non-null,
/// writes the input gradient W^T dy.
inline void OracleLinearBackward(const Linear& layer,
                                 const std::vector<double>& params,
                                 const double* x, const double* dy,
                                 std::vector<double>& grad, double* dx) {
  const size_t in = static_cast<size_t>(layer.in_dim());
  const size_t out = static_cast<size_t>(layer.out_dim());
  const double* w = params.data() + layer.offset();
  double* dw = grad.data() + layer.offset();
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

/// EncoderDecoder::LossAndGradient as it was before the two-pass backward:
/// the same teacher-forced forward through LstmCell::Forward and
/// Linear::Forward, then per-step backward steps that accumulate every
/// parameter gradient into `grad` as they go. Returns the loss.
inline double OracleLossAndGradient(const Seq2SeqConfig& config,
                                    const std::vector<double>& params,
                                    const Sequence& input,
                                    const Sequence& target,
                                    const std::vector<double>& weights,
                                    std::vector<double>& grad) {
  const LstmCell encoder(config.input_dim, config.hidden_dim, 0);
  const LstmCell decoder(config.output_dim, config.hidden_dim,
                         encoder.param_count());
  const Linear readout(config.hidden_dim, config.output_dim,
                       encoder.param_count() + decoder.param_count());
  const size_t hd = static_cast<size_t>(config.hidden_dim);
  const size_t out_dim = static_cast<size_t>(config.output_dim);
  const size_t seq_out = static_cast<size_t>(config.seq_out);

  std::vector<double> h(hd, 0.0), c(hd, 0.0);
  LstmTrace enc, dec;
  encoder.ResizeTrace(enc, input.size());
  for (size_t t = 0; t < input.size(); ++t) {
    encoder.Forward(params, input[t].data(), h.data(), c.data(), enc, t);
  }
  decoder.ResizeTrace(dec, seq_out);
  std::vector<double> dec_hidden(seq_out * hd), outputs(seq_out * out_dim);
  std::vector<double> dec_input(out_dim);
  auto load = [&](const std::vector<double>& src) {
    for (size_t k = 0; k < out_dim; ++k) {
      dec_input[k] = k < src.size() ? src[k] : 0.0;
    }
  };
  load(input.back());
  for (size_t t = 0; t < seq_out; ++t) {
    decoder.Forward(params, dec_input.data(), h.data(), c.data(), dec, t);
    std::copy(h.begin(), h.end(), dec_hidden.begin() + t * hd);
    readout.Forward(params, h.data(), outputs.data() + t * out_dim);
    if (t + 1 < seq_out) load(target[t]);
  }

  double loss = WeightedMseLoss::Value(outputs.data(), target, weights);
  std::vector<double> dout(outputs.size());
  WeightedMseLoss::Gradient(outputs.data(), target, weights, dout.data());

  std::vector<double> dh(hd, 0.0), dc(hd, 0.0), dh_step(hd), dz(4 * hd);
  for (size_t t = seq_out; t-- > 0;) {
    OracleLinearBackward(readout, params, dec_hidden.data() + t * hd,
                         dout.data() + t * out_dim, grad, dh_step.data());
    for (size_t k = 0; k < hd; ++k) dh[k] += dh_step[k];
    OracleLstmBackward(decoder, params, dec, t, dh.data(), dc.data(),
                       dz.data(), grad);
  }
  for (size_t t = input.size(); t-- > 0;) {
    OracleLstmBackward(encoder, params, enc, t, dh.data(), dc.data(),
                       dz.data(), grad);
  }
  return loss;
}

}  // namespace tamp::nn::testing
