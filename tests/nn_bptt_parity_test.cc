// Parity of the two-pass, allocation-free BPTT kernel: EncoderDecoder's
// LossAndGradient through one reused TrainScratch against fresh-scratch
// calls, against a per-step-vector reference (the cache layout the flat
// trace replaced) and against the per-step, gradient-writing backward it
// replaced (nn_bptt_oracle.h); its `scale` against the zero-fill-then-scale
// fold; non-finite parameters; and BatchLossAndGradient's per-thread
// scratch at 1 and 4 threads. Every comparison is exact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"
#include "nn_activation_oracle.h"
#include "nn_bptt_oracle.h"

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

Seq2SeqConfig ConfigOf(const Shape& shape) {
  Seq2SeqConfig config;
  config.input_dim = shape.input_dim;
  config.hidden_dim = shape.hidden_dim;
  config.seq_out = shape.seq_out;
  return config;
}

/// Every hidden width around the SSE2 blocks of the state and weight
/// passes (eight columns per block, scalar tail below and above each
/// multiple of 8), times both input widths, every decoder horizon and
/// short, medium and long encoder sequences. Hidden widths alternate up
/// and down so one reused scratch shrinks and grows.
std::vector<Shape> SweepShapes() {
  std::vector<Shape> shapes;
  for (int hidden : {16, 1, 24, 7, 2, 17, 9, 3, 15, 8}) {
    for (int input_dim : {2, 3}) {
      for (int seq_out = 1; seq_out <= 3; ++seq_out) {
        for (int seq_in : {1, 10, 5}) {
          shapes.push_back({input_dim, hidden, seq_out, seq_in});
        }
      }
    }
  }
  return shapes;
}

::testing::Message Describe(const Shape& shape) {
  return ::testing::Message()
         << "input_dim " << shape.input_dim << " hidden " << shape.hidden_dim
         << " seq_out " << shape.seq_out << " seq_in " << shape.seq_in;
}

/// One reused scratch across the whole shape sweep, uniform and weighted
/// loss, on zeroed gradients with scale 1: bitwise equal to a
/// fresh-scratch call, to the per-step-vector reference and to the
/// per-step backward oracle.
TEST(BpttParityTest, ReusedScratchMatchesFreshAndReference) {
  tamp::Rng rng(101);
  TrainScratch scratch;
  for (const Shape& shape : SweepShapes()) {
    const Seq2SeqConfig config = ConfigOf(shape);
    EncoderDecoder model(config);
    ReferenceSeq2Seq reference(config);
    std::vector<double> params = model.InitParams(rng);
    Sequence input = RandomSequence(rng, shape.seq_in, shape.input_dim);
    Sequence target = RandomSequence(rng, shape.seq_out, 2);
    std::vector<double> ramp;
    for (int t = 0; t < shape.seq_out; ++t) ramp.push_back(0.5 + t);
    for (const std::vector<double>& weights : {std::vector<double>{}, ramp}) {
      SCOPED_TRACE(Describe(shape) << " weighted " << !weights.empty());
      std::vector<double> reused(params.size(), 0.0);
      std::vector<double> fresh(params.size(), 0.0);
      std::vector<double> ref(params.size(), 0.0);
      std::vector<double> oracle(params.size(), 0.0);
      double reused_loss = model.LossAndGradient(params, input, target,
                                                 weights, reused, &scratch);
      double fresh_loss =
          model.LossAndGradient(params, input, target, weights, fresh);
      double ref_loss =
          reference.LossAndGradient(params, input, target, weights, ref);
      double oracle_loss = testing::OracleLossAndGradient(
          config, params, input, target, weights, oracle);
      EXPECT_EQ(reused_loss, fresh_loss);
      EXPECT_EQ(reused, fresh);
      EXPECT_EQ(reused_loss, ref_loss);
      EXPECT_EQ(reused, ref);
      EXPECT_EQ(reused_loss, oracle_loss);
      EXPECT_EQ(reused, oracle);
      // The forward half serves inference too.
      Sequence with_scratch = model.Predict(params, input, &scratch);
      EXPECT_EQ(with_scratch, model.Predict(params, input));
      EXPECT_EQ(model.EvalLoss(params, input, target, weights, &scratch),
                model.EvalLoss(params, input, target, weights));
    }
  }
}

/// `scale` on a non-zero `grad`: bitwise the fold the weight pass
/// replaced, "zero a sample gradient, accumulate the per-step oracle into
/// it, then grad[i] += sample[i] * scale".
TEST(BpttParityTest, ScaledAccumulationMatchesZeroFillFold) {
  tamp::Rng rng(303);
  TrainScratch scratch;
  const Shape shapes[] = {{2, 16, 1, 10}, {3, 16, 3, 5}, {3, 9, 2, 1},
                          {2, 7, 3, 10},  {3, 17, 1, 5}, {2, 1, 2, 5}};
  for (const Shape& shape : shapes) {
    const Seq2SeqConfig config = ConfigOf(shape);
    EncoderDecoder model(config);
    std::vector<double> params = model.InitParams(rng);
    Sequence input = RandomSequence(rng, shape.seq_in, shape.input_dim);
    Sequence target = RandomSequence(rng, shape.seq_out, 2);
    std::vector<double> start(params.size());
    for (double& g : start) g = rng.Uniform(-1.0, 1.0);
    for (double scale : {0.2, 1.0 / 3.0, -1.5, 1.0}) {
      SCOPED_TRACE(Describe(shape) << " scale " << scale);
      std::vector<double> got = start;
      double got_loss = model.LossAndGradient(params, input, target, {}, got,
                                              &scratch, scale);
      std::vector<double> sample(params.size(), 0.0);
      double want_loss = testing::OracleLossAndGradient(config, params, input,
                                                        target, {}, sample);
      std::vector<double> want = start;
      for (size_t i = 0; i < want.size(); ++i) want[i] += sample[i] * scale;
      EXPECT_EQ(got_loss, want_loss);
      EXPECT_EQ(got, want);
    }
  }
}

/// Counts the entries of `got` that differ from `want` bit for bit, where
/// a NaN in `want` only has to meet a NaN (SSE2 lanes and scalar code may
/// propagate different NaN payloads). Tallies NaN and infinite entries of
/// `want` so a caller can check that its plants reached the output.
int CountMismatches(const double* got, const double* want, size_t n,
                    int* nan_outputs, int* inf_outputs) {
  int mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(want[i])) {
      ++*nan_outputs;
      if (!std::isnan(got[i])) ++mismatches;
    } else {
      if (std::isinf(want[i])) ++*inf_outputs;
      if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) ++mismatches;
    }
  }
  return mismatches;
}

/// Plants 1-4 edge values (NaN, +-inf, signed zeros, subnormals,
/// magnitudes near overflow) at random entries of `v`.
void PlantSpecials(tamp::Rng& rng, int trial, std::vector<double>& v) {
  static const double kSpecials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      1e300,
      -3.7e299,
  };
  constexpr int64_t kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);
  const int64_t last = static_cast<int64_t>(v.size()) - 1;
  for (int n = 0; n < 1 + trial % 4; ++n) {
    v[static_cast<size_t>(rng.UniformInt(0, last))] =
        kSpecials[rng.UniformInt(0, kNumSpecials - 1)];
  }
}

/// Non-finite and extreme parameters through one cell and one read-out
/// layer (the model-level loss rejects a non-finite value, so the cases
/// run below it): the state pass's dh/dc after every step and the weight
/// pass's gradient match the per-step oracle bit for bit, NaN against NaN.
TEST(BpttParityTest, NonFiniteParametersMatchOracle) {
  tamp::Rng rng(404);
  int nan_outputs = 0, inf_outputs = 0;
  const Shape shapes[] = {{3, 16, 0, 10}, {2, 9, 0, 5}, {3, 3, 0, 5},
                          {2, 17, 0, 1},  {3, 8, 0, 10}, {2, 24, 0, 3}};
  for (const Shape& shape : shapes) {
    const size_t hd = static_cast<size_t>(shape.hidden_dim);
    const size_t id = static_cast<size_t>(shape.input_dim);
    const size_t steps = static_cast<size_t>(shape.seq_in);
    const LstmCell cell(shape.input_dim, shape.hidden_dim, /*offset=*/0);
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(Describe(shape) << " trial " << trial);
      std::vector<double> params(cell.param_count());
      cell.InitParams(rng, params);
      PlantSpecials(rng, trial, params);
      LstmTrace trace;
      cell.ResizeTrace(trace, steps);
      std::vector<double> h(hd, 0.0), c(hd, 0.0), x(id);
      for (size_t t = 0; t < steps; ++t) {
        for (double& v : x) v = rng.Uniform(-1.0, 1.0);
        cell.Forward(params, x.data(), h.data(), c.data(), trace, t);
      }
      std::vector<double> dh(hd), dc(hd);
      for (double& v : dh) v = rng.Uniform(-1.0, 1.0);
      for (double& v : dc) v = rng.Uniform(-1.0, 1.0);
      std::vector<double> want_dh = dh, want_dc = dc, want_dz(4 * hd);
      std::vector<double> dz(steps * 4 * hd);
      std::vector<double> got(params.size(), 0.0), want(params.size(), 0.0);
      int mismatches = 0;
      for (size_t t = steps; t-- > 0;) {
        cell.BackwardState(params, trace, t, dh.data(), dc.data(),
                           dz.data() + t * 4 * hd);
        testing::OracleLstmBackward(cell, params, trace, t, want_dh.data(),
                                    want_dc.data(), want_dz.data(), want);
        mismatches += CountMismatches(dh.data(), want_dh.data(), hd,
                                      &nan_outputs, &inf_outputs);
        mismatches += CountMismatches(dc.data(), want_dc.data(), hd,
                                      &nan_outputs, &inf_outputs);
      }
      cell.WeightGradient(trace, dz.data(), steps, /*scale=*/1.0, got);
      mismatches += CountMismatches(got.data(), want.data(), got.size(),
                                    &nan_outputs, &inf_outputs);
      EXPECT_EQ(mismatches, 0);

      // A read-out over the same steps, hidden states as its inputs; odd
      // output widths reach the weight pass's odd-row path.
      const size_t out = 2 + static_cast<size_t>(trial % 2);
      const Linear readout(shape.hidden_dim, static_cast<int>(out),
                           /*offset=*/0);
      std::vector<double> rparams(readout.param_count());
      readout.InitParams(rng, rparams);
      PlantSpecials(rng, trial, rparams);
      std::vector<double> dy(steps * out);
      for (double& v : dy) v = rng.Uniform(-1.0, 1.0);
      const double* inputs = trace.h_prev.data();
      std::vector<double> rgot(rparams.size(), 0.0);
      std::vector<double> rwant(rparams.size(), 0.0);
      std::vector<double> dx(hd), want_dx(hd);
      mismatches = 0;
      for (size_t t = steps; t-- > 0;) {
        readout.BackwardInput(rparams, dy.data() + t * out, dx.data());
        testing::OracleLinearBackward(readout, rparams, inputs + t * hd,
                                      dy.data() + t * out, rwant,
                                      want_dx.data());
        mismatches += CountMismatches(dx.data(), want_dx.data(), hd,
                                      &nan_outputs, &inf_outputs);
      }
      readout.WeightGradient(inputs, dy.data(), steps, /*scale=*/1.0, rgot);
      mismatches += CountMismatches(rgot.data(), rwant.data(), rgot.size(),
                                    &nan_outputs, &inf_outputs);
      EXPECT_EQ(mismatches, 0);
    }
  }
  // The plants must reach the compared outputs as both NaN and infinity.
  EXPECT_GT(nan_outputs, 0);
  EXPECT_GT(inf_outputs, 0);
}

/// BatchLossAndGradient keeps one scratch per pool thread; jobs of
/// different shapes interleave on those threads and must still equal the
/// per-sample fold over the per-step oracle (nn_bptt_oracle.h), so a
/// defect in the backward kernels fails here too, not only the fold.
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

  // The reference fold: the per-step oracle per sample, each sample's
  // gradient added times 1/N.
  std::vector<std::vector<double>> want(jobs.size());
  std::vector<double> want_loss(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    want[j].assign(job.params.size(), 0.0);
    double loss_sum = 0.0;
    double inv = 1.0 / static_cast<double>(job.samples.size());
    for (size_t s = 0; s < job.samples.size(); ++s) {
      std::vector<double> sample_grad(job.params.size(), 0.0);
      loss_sum += testing::OracleLossAndGradient(
          job.config, job.params, job.samples[s].input, job.samples[s].target,
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
