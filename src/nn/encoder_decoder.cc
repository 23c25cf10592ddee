#include "nn/encoder_decoder.h"

#include <algorithm>

#include "common/check.h"

namespace tamp::nn {

EncoderDecoder::EncoderDecoder(const Seq2SeqConfig& config)
    : config_(config),
      encoder_(config.input_dim, config.hidden_dim, /*offset=*/0),
      decoder_(config.output_dim, config.hidden_dim,
               encoder_.param_count()),
      readout_(config.hidden_dim, config.output_dim,
               encoder_.param_count() + decoder_.param_count()),
      param_count_(encoder_.param_count() + decoder_.param_count() +
                   readout_.param_count()) {
  TAMP_CHECK(config.seq_out >= 1);
}

std::vector<double> EncoderDecoder::InitParams(Rng& rng) const {
  std::vector<double> params(param_count_, 0.0);
  encoder_.InitParams(rng, params);
  decoder_.InitParams(rng, params);
  readout_.InitParams(rng, params);
  return params;
}

void EncoderDecoder::RunForward(const std::vector<double>& params,
                                const Sequence& input_seq,
                                const Sequence* teacher_targets,
                                TrainScratch& s) const {
  TAMP_CHECK(params.size() == param_count_);
  TAMP_CHECK(!input_seq.empty());
  for (const auto& step : input_seq) {
    TAMP_CHECK(static_cast<int>(step.size()) == config_.input_dim);
  }

  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  const size_t out_dim = static_cast<size_t>(config_.output_dim);
  s.h.assign(hd, 0.0);
  s.c.assign(hd, 0.0);

  encoder_.ResizeTrace(s.enc, input_seq.size());
  for (size_t t = 0; t < input_seq.size(); ++t) {
    encoder_.Forward(params, input_seq[t].data(), s.h.data(), s.c.data(),
                     s.enc, t);
  }

  decoder_.ResizeTrace(s.dec, seq_out);
  s.dec_hidden.resize(seq_out * hd);
  s.outputs.resize(seq_out * out_dim);
  s.dec_input.resize(out_dim);
  // The decoder input is a location: the first `out_dim` entries of its
  // source, zero-padded.
  auto load_dec_input = [&](const double* src, size_t n) {
    for (size_t k = 0; k < out_dim; ++k) s.dec_input[k] = k < n ? src[k] : 0.0;
  };
  // The decoder's first input is the most recent observed location; later
  // inputs are the previous ground truth (teacher forcing) or the previous
  // prediction (autoregressive inference).
  load_dec_input(input_seq.back().data(), input_seq.back().size());
  for (size_t t = 0; t < seq_out; ++t) {
    decoder_.Forward(params, s.dec_input.data(), s.h.data(), s.c.data(),
                     s.dec, t);
    std::copy(s.h.begin(), s.h.end(), s.dec_hidden.data() + t * hd);
    double* out = s.outputs.data() + t * out_dim;
    readout_.Forward(params, s.h.data(), out);
    if (t + 1 < seq_out) {
      if (teacher_targets != nullptr) {
        load_dec_input((*teacher_targets)[t].data(),
                       (*teacher_targets)[t].size());
      } else {
        load_dec_input(out, out_dim);
      }
    }
  }
}

Sequence EncoderDecoder::Predict(const std::vector<double>& params,
                                 const Sequence& input_seq,
                                 PredictScratch* scratch) const {
  PredictScratch local;
  PredictScratch& s = scratch != nullptr ? *scratch : local;
  RunForward(params, input_seq, /*teacher_targets=*/nullptr, s);
  const size_t out_dim = static_cast<size_t>(config_.output_dim);
  Sequence outputs(static_cast<size_t>(config_.seq_out));
  for (size_t t = 0; t < outputs.size(); ++t) {
    const double* row = s.outputs.data() + t * out_dim;
    outputs[t].assign(row, row + out_dim);
  }
  return outputs;
}

double EncoderDecoder::LossAndGradient(const std::vector<double>& params,
                                       const Sequence& input_seq,
                                       const Sequence& target_seq,
                                       const std::vector<double>& step_weights,
                                       std::vector<double>& grad,
                                       TrainScratch* scratch,
                                       double scale) const {
  TAMP_CHECK(grad.size() == param_count_);
  CheckTargetShape(target_seq);
  TrainScratch local;
  TrainScratch& s = scratch != nullptr ? *scratch : local;
  RunForward(params, input_seq, &target_seq, s);

  double loss = WeightedMseLoss::Value(s.outputs.data(), target_seq,
                                       step_weights);
  s.dout.resize(s.outputs.size());
  WeightedMseLoss::Gradient(s.outputs.data(), target_seq, step_weights,
                            s.dout.data());

  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t out_dim = static_cast<size_t>(config_.output_dim);
  const size_t seq_in = input_seq.size();
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  s.dh.assign(hd, 0.0);
  s.dc.assign(hd, 0.0);
  s.dh_step.resize(hd);
  s.enc_dz.resize(seq_in * 4 * hd);
  s.dec_dz.resize(seq_out * 4 * hd);

  // State pass through the decoder. Teacher forcing means decoder inputs
  // are constants, so no gradient flows through them; the recurrent state
  // carries all credit back into the encoder.
  for (size_t t = seq_out; t-- > 0;) {
    readout_.BackwardInput(params, s.dout.data() + t * out_dim,
                           s.dh_step.data());
    for (size_t k = 0; k < hd; ++k) s.dh[k] += s.dh_step[k];
    decoder_.BackwardState(params, s.dec, t, s.dh.data(), s.dc.data(),
                           s.dec_dz.data() + t * 4 * hd);
  }
  // State pass through the encoder; input gradients are not needed.
  for (size_t t = seq_in; t-- > 0;) {
    encoder_.BackwardState(params, s.enc, t, s.dh.data(), s.dc.data(),
                           s.enc_dz.data() + t * 4 * hd);
  }

  // Weight pass: each parameter's gradient is written once.
  readout_.WeightGradient(s.dec_hidden.data(), s.dout.data(), seq_out, scale,
                          grad);
  decoder_.WeightGradient(s.dec, s.dec_dz.data(), seq_out, scale, grad);
  encoder_.WeightGradient(s.enc, s.enc_dz.data(), seq_in, scale, grad);
  return loss;
}

double EncoderDecoder::EvalLoss(const std::vector<double>& params,
                                const Sequence& input_seq,
                                const Sequence& target_seq,
                                const std::vector<double>& step_weights,
                                PredictScratch* scratch) const {
  CheckTargetShape(target_seq);
  PredictScratch local;
  PredictScratch& s = scratch != nullptr ? *scratch : local;
  RunForward(params, input_seq, /*teacher_targets=*/nullptr, s);
  return WeightedMseLoss::Value(s.outputs.data(), target_seq, step_weights);
}

void EncoderDecoder::CheckTargetShape(const Sequence& target_seq) const {
  TAMP_CHECK(static_cast<int>(target_seq.size()) == config_.seq_out);
  for (const auto& step : target_seq) {
    TAMP_CHECK(static_cast<int>(step.size()) == config_.output_dim);
  }
}

}  // namespace tamp::nn
