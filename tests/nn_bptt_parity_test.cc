// Parity of the flat, allocation-free BPTT kernel: EncoderDecoder's
// LossAndGradient through one reused TrainScratch against fresh-scratch
// calls and against a per-step-vector reference (the cache layout the flat
// trace replaced), and BatchLossAndGradient's per-thread scratch at 1 and
// 4 threads. Every comparison is exact.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"
#include "nn_activation_oracle.h"

namespace tamp::nn {
namespace {

/// Reference BPTT with one heap-allocated cache per step, the operation
/// order of the per-step-vector kernel. Its gates use the scalar copy of
/// the activation kernel (nn_activation_oracle.h).
class ReferenceSeq2Seq {
 public:
  explicit ReferenceSeq2Seq(const Seq2SeqConfig& config) : cfg_(config) {
    hd_ = static_cast<size_t>(config.hidden_dim);
    od_ = static_cast<size_t>(config.output_dim);
    enc_ = 0;
    dec_ = CellParams(static_cast<size_t>(config.input_dim));
    out_ = dec_ + CellParams(od_);
  }

  double LossAndGradient(const std::vector<double>& p, const Sequence& input,
                         const Sequence& target,
                         const std::vector<double>& weights,
                         std::vector<double>& grad) const {
    const size_t id = static_cast<size_t>(cfg_.input_dim);
    std::vector<double> h(hd_, 0.0), c(hd_, 0.0);
    std::vector<Step> enc, dec;
    for (const auto& x : input) enc.push_back(Forward(p, enc_, id, x, h, c));
    std::vector<std::vector<double>> hidden;
    Sequence outputs;
    std::vector<double> dec_input = input.back();
    dec_input.resize(od_, 0.0);
    for (size_t t = 0; t < target.size(); ++t) {
      dec.push_back(Forward(p, dec_, od_, dec_input, h, c));
      hidden.push_back(h);
      std::vector<double> y(od_);
      for (size_t r = 0; r < od_; ++r) {
        double acc = p[out_ + od_ * hd_ + r];
        for (size_t k = 0; k < hd_; ++k) acc += p[out_ + r * hd_ + k] * h[k];
        y[r] = acc;
      }
      outputs.push_back(y);
      dec_input = target[t];
    }

    double acc = 0.0;
    size_t terms = 0;
    for (size_t t = 0; t < outputs.size(); ++t) {
      double w = weights.empty() ? 1.0 : weights[t];
      for (size_t d = 0; d < od_; ++d) {
        double diff = outputs[t][d] - target[t][d];
        acc += w * diff * diff;
      }
      terms += od_;
    }
    double scale = 2.0 / static_cast<double>(terms);

    std::vector<double> dh(hd_, 0.0), dc(hd_, 0.0);
    for (size_t t = outputs.size(); t-- > 0;) {
      double w = weights.empty() ? 1.0 : weights[t];
      std::vector<double> dh_step(hd_, 0.0);
      for (size_t r = 0; r < od_; ++r) {
        double g = scale * w * (outputs[t][r] - target[t][r]);
        grad[out_ + od_ * hd_ + r] += g;
        for (size_t k = 0; k < hd_; ++k) {
          grad[out_ + r * hd_ + k] += g * hidden[t][k];
          dh_step[k] += g * p[out_ + r * hd_ + k];
        }
      }
      for (size_t k = 0; k < hd_; ++k) dh[k] += dh_step[k];
      Backward(p, dec_, od_, dec[t], dh, dc, grad);
    }
    for (size_t t = enc.size(); t-- > 0;) {
      Backward(p, enc_, id, enc[t], dh, dc, grad);
    }
    return acc / static_cast<double>(terms);
  }

 private:
  struct Step {
    std::vector<double> x, h_prev, c_prev, i, f, g, o, tanh_c;
  };

  size_t CellParams(size_t in) const { return 4 * hd_ * (in + hd_ + 1); }

  Step Forward(const std::vector<double>& p, size_t offset, size_t in,
               const std::vector<double>& x, std::vector<double>& h,
               std::vector<double>& c) const {
    const size_t h4 = 4 * hd_;
    const double* wx = p.data() + offset;
    const double* wh = wx + h4 * in;
    const double* b = wh + h4 * hd_;
    Step s{x, h, c, {}, {}, {}, {}, {}};
    std::vector<double> z(h4);
    for (size_t r = 0; r < h4; ++r) {
      double acc = b[r];
      for (size_t k = 0; k < in; ++k) acc += wx[r * in + k] * x[k];
      for (size_t k = 0; k < hd_; ++k) acc += wh[r * hd_ + k] * s.h_prev[k];
      z[r] = acc;
    }
    for (size_t k = 0; k < hd_; ++k) {
      s.i.push_back(testing::OracleSigmoid(z[k]));
      s.f.push_back(testing::OracleSigmoid(z[hd_ + k]));
      s.g.push_back(testing::OracleTanh(z[2 * hd_ + k]));
      s.o.push_back(testing::OracleSigmoid(z[3 * hd_ + k]));
      c[k] = s.f[k] * s.c_prev[k] + s.i[k] * s.g[k];
      s.tanh_c.push_back(testing::OracleTanh(c[k]));
      h[k] = s.o[k] * s.tanh_c[k];
    }
    return s;
  }

  void Backward(const std::vector<double>& p, size_t offset, size_t in,
                const Step& s, std::vector<double>& dh,
                std::vector<double>& dc, std::vector<double>& grad) const {
    const size_t h4 = 4 * hd_;
    const double* wh = p.data() + offset + h4 * in;
    double* dwx = grad.data() + offset;
    double* dwh = dwx + h4 * in;
    double* db = dwh + h4 * hd_;
    std::vector<double> dz(h4), dc_prev(hd_), dh_prev(hd_, 0.0);
    for (size_t k = 0; k < hd_; ++k) {
      double i = s.i[k], f = s.f[k], g = s.g[k], o = s.o[k];
      double tc = s.tanh_c[k];
      double d_o = dh[k] * tc;
      double d_c = dc[k] + dh[k] * o * (1.0 - tc * tc);
      dz[k] = d_c * g * i * (1.0 - i);
      dz[hd_ + k] = d_c * s.c_prev[k] * f * (1.0 - f);
      dz[2 * hd_ + k] = d_c * i * (1.0 - g * g);
      dz[3 * hd_ + k] = d_o * o * (1.0 - o);
      dc_prev[k] = d_c * f;
    }
    for (size_t r = 0; r < h4; ++r) {
      db[r] += dz[r];
      for (size_t k = 0; k < in; ++k) dwx[r * in + k] += dz[r] * s.x[k];
      for (size_t k = 0; k < hd_; ++k) {
        dwh[r * hd_ + k] += dz[r] * s.h_prev[k];
        dh_prev[k] += dz[r] * wh[r * hd_ + k];
      }
    }
    dh = dh_prev;
    dc = dc_prev;
  }

  Seq2SeqConfig cfg_;
  size_t hd_, od_, enc_, dec_, out_;
};

Sequence RandomSequence(tamp::Rng& rng, int steps, int dim) {
  Sequence seq(static_cast<size_t>(steps));
  for (auto& step : seq) {
    for (int d = 0; d < dim; ++d) step.push_back(rng.Uniform01());
  }
  return seq;
}

struct Shape {
  int input_dim;
  int hidden_dim;
  int seq_out;
  int seq_in;
};

/// One reused scratch across every shape (seq_in 1 -> 10 -> 5, hidden
/// sizes up and down), uniform and weighted loss: bitwise equal to a
/// fresh-scratch call and to the per-step-vector reference.
TEST(BpttParityTest, ReusedScratchMatchesFreshAndReference) {
  tamp::Rng rng(101);
  TrainScratch scratch;
  const Shape shapes[] = {{2, 16, 1, 1}, {3, 16, 1, 10}, {3, 16, 2, 5},
                          {2, 7, 3, 10}, {3, 4, 3, 1},   {2, 16, 2, 5},
                          {3, 16, 3, 5}, {3, 9, 1, 10}};
  for (const Shape& shape : shapes) {
    Seq2SeqConfig config;
    config.input_dim = shape.input_dim;
    config.hidden_dim = shape.hidden_dim;
    config.seq_out = shape.seq_out;
    EncoderDecoder model(config);
    ReferenceSeq2Seq reference(config);
    std::vector<double> params = model.InitParams(rng);
    Sequence input = RandomSequence(rng, shape.seq_in, shape.input_dim);
    Sequence target = RandomSequence(rng, shape.seq_out, 2);
    std::vector<double> ramp;
    for (int t = 0; t < shape.seq_out; ++t) ramp.push_back(0.5 + t);
    for (const std::vector<double>& weights : {std::vector<double>{}, ramp}) {
      SCOPED_TRACE(::testing::Message()
                   << "input_dim " << shape.input_dim << " hidden "
                   << shape.hidden_dim << " seq_out " << shape.seq_out
                   << " seq_in " << shape.seq_in << " weighted "
                   << !weights.empty());
      std::vector<double> reused(params.size(), 0.5);
      std::vector<double> fresh(params.size(), 0.5);
      std::vector<double> ref(params.size(), 0.5);
      double reused_loss = model.LossAndGradient(params, input, target,
                                                 weights, reused, &scratch);
      double fresh_loss =
          model.LossAndGradient(params, input, target, weights, fresh);
      double ref_loss =
          reference.LossAndGradient(params, input, target, weights, ref);
      EXPECT_EQ(reused_loss, fresh_loss);
      EXPECT_EQ(reused, fresh);
      EXPECT_EQ(reused_loss, ref_loss);
      EXPECT_EQ(reused, ref);
      // The forward half serves inference too.
      Sequence with_scratch = model.Predict(params, input, &scratch);
      EXPECT_EQ(with_scratch, model.Predict(params, input));
      EXPECT_EQ(model.EvalLoss(params, input, target, weights, &scratch),
                model.EvalLoss(params, input, target, weights));
    }
  }
}

/// BatchLossAndGradient keeps one scratch and sample gradient per pool
/// thread; jobs of different shapes interleave on those threads and must
/// still equal the per-sample fold over fresh-scratch calls.
TEST(BpttParityTest, BatchLossAndGradientPerThreadScratch) {
  struct Job {
    Seq2SeqConfig config;
    std::vector<double> params;
    std::vector<meta::TrainingSample> samples;
    std::vector<std::vector<double>> weights;
  };
  tamp::Rng rng(202);
  std::vector<Job> jobs;
  for (int j = 0; j < 12; ++j) {
    Job job;
    job.config.input_dim = 2 + j % 2;
    job.config.hidden_dim = 4 + 3 * (j % 4);
    job.config.seq_out = 1 + j % 3;
    job.params = EncoderDecoder(job.config).InitParams(rng);
    const int seq_in = 1 + (j * 7) % 10;
    for (int s = 0; s < 5; ++s) {
      meta::TrainingSample sample;
      sample.input = RandomSequence(rng, seq_in, job.config.input_dim);
      sample.target = RandomSequence(rng, job.config.seq_out, 2);
      job.samples.push_back(std::move(sample));
      if (j % 2 == 1) {
        job.weights.emplace_back(static_cast<size_t>(job.config.seq_out),
                                 1.0 + 0.25 * s);
      }
    }
    jobs.push_back(std::move(job));
  }

  // The reference fold: fresh-scratch LossAndGradient per sample.
  std::vector<std::vector<double>> want(jobs.size());
  std::vector<double> want_loss(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    EncoderDecoder model(job.config);
    want[j].assign(job.params.size(), 0.0);
    double loss_sum = 0.0;
    double inv = 1.0 / static_cast<double>(job.samples.size());
    for (size_t s = 0; s < job.samples.size(); ++s) {
      std::vector<double> sample_grad(job.params.size(), 0.0);
      loss_sum += model.LossAndGradient(
          job.params, job.samples[s].input, job.samples[s].target,
          job.weights.empty() ? std::vector<double>{} : job.weights[s],
          sample_grad);
      for (size_t i = 0; i < want[j].size(); ++i) {
        want[j][i] += sample_grad[i] * inv;
      }
    }
    want_loss[j] = loss_sum / static_cast<double>(job.samples.size());
  }

  for (int threads : {1, 4}) {
    const int saved = ParallelThreadCount();
    SetParallelThreadCount(threads);
    std::vector<std::vector<double>> got(jobs.size());
    std::vector<double> got_loss(jobs.size());
    ParallelFor(jobs.size(), [&](size_t j) {
      const Job& job = jobs[j];
      got[j].assign(job.params.size(), 0.0);
      got_loss[j] = meta::BatchLossAndGradient(
          EncoderDecoder(job.config), job.params, job.samples, job.weights,
          got[j]);
    });
    SetParallelThreadCount(saved);
    for (size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(got_loss[j], want_loss[j]) << "job " << j;
      EXPECT_EQ(got[j], want[j]) << "job " << j << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace tamp::nn
