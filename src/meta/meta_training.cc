#include "meta/meta_training.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "nn/optimizer.h"

namespace tamp::meta {

std::vector<double> SampleWeights(const MetaTrainConfig& config,
                                  const TrainingSample& sample) {
  if (!config.weight_fn) return {};
  std::vector<double> weights;
  weights.reserve(sample.target_km.size());
  for (const auto& p : sample.target_km) weights.push_back(config.weight_fn(p));
  return weights;
}

std::vector<std::vector<double>> BatchSampleWeights(
    const MetaTrainConfig& config, const std::vector<TrainingSample>& samples) {
  std::vector<std::vector<double>> weights;
  if (!config.weight_fn) return weights;  // Empty: uniform for every sample.
  weights.reserve(samples.size());
  for (const TrainingSample& sample : samples) {
    weights.push_back(SampleWeights(config, sample));
  }
  return weights;
}

double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const std::vector<std::vector<double>>& weights,
                            std::vector<double>& grad) {
  TAMP_CHECK(!samples.empty());
  TAMP_CHECK(grad.size() == params.size());
  TAMP_CHECK(weights.empty() || weights.size() == samples.size());
  static const std::vector<double> kUniform;
  // Per-pool-thread BPTT buffers: every sample overwrites what it reads,
  // so the loop is allocation-free and the fan-out stays bit-deterministic.
  // Each sample adds its gradient times 1/N straight into `grad`.
  thread_local nn::TrainScratch scratch;
  double loss_sum = 0.0;
  double inv = 1.0 / static_cast<double>(samples.size());
  for (size_t s = 0; s < samples.size(); ++s) {
    const TrainingSample& sample = samples[s];
    loss_sum += model.LossAndGradient(params, sample.input, sample.target,
                                      weights.empty() ? kUniform : weights[s],
                                      grad, &scratch, inv);
  }
  // Plain division (not * inv) keeps the loss bit-identical to the
  // pre-optimization code path.
  return loss_sum / static_cast<double>(samples.size());
}

double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const MetaTrainConfig& config,
                            std::vector<double>& grad) {
  return BatchLossAndGradient(model, params, samples,
                              BatchSampleWeights(config, samples), grad);
}

std::vector<double> AdaptKSteps(const nn::EncoderDecoder& model,
                                const std::vector<double>& theta,
                                const std::vector<TrainingSample>& samples,
                                int steps, double beta,
                                const MetaTrainConfig& config) {
  std::vector<double> adapted = theta;
  if (samples.empty()) return adapted;
  // f_w only depends on the sample targets: evaluate it once per sample
  // here instead of once per sample per step inside the loop.
  std::vector<std::vector<double>> weights =
      BatchSampleWeights(config, samples);
  std::vector<double> grad(theta.size());
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    BatchLossAndGradient(model, adapted, samples, weights, grad);
    nn::ClipGradientNorm(grad, config.grad_clip);
    for (size_t i = 0; i < adapted.size(); ++i) adapted[i] -= beta * grad[i];
  }
  return adapted;
}

namespace {

/// One sampled pick's adapt + query-loss result (Alg. 3 lines 4-8). It
/// touches only its leaf's theta, the task's own data and pick-local
/// buffers, so every pick of a round runs independently.
struct PickResult {
  double query_loss = 0.0;
  bool contributing = false;
  std::vector<double> contribution;  // This pick's meta-gradient term.
};

PickResult RunPick(const nn::EncoderDecoder& model, const LearningTask& task,
                   const std::vector<double>& theta,
                   const MetaTrainConfig& config) {
  static obs::Counter& adapt_steps_counter =
      obs::MetricsRegistry::Global().GetCounter("meta.adapt_steps");
  static obs::Counter& nonfinite_counter =
      obs::MetricsRegistry::Global().GetCounter("meta.nonfinite_losses");
  PickResult out;
  if (task.support.empty() || task.query.empty()) return out;
  // Alg. 3 lines 4-7: adapt k steps on the support set.
  std::vector<double> adapted = AdaptKSteps(
      model, theta, task.support, config.adapt_steps, config.beta, config);
  adapt_steps_counter.Increment(config.adapt_steps);
  // Alg. 3 line 8: query loss at the adapted parameters.
  std::vector<double> query_grad(theta.size(), 0.0);
  out.query_loss =
      BatchLossAndGradient(model, adapted, task.query, config, query_grad);
  if (!std::isfinite(out.query_loss)) {
    // A diverged adaptation (or a poisoned sample) must not reach the
    // leaf's meta step: the pick is counted and contributes nothing.
    nonfinite_counter.Increment();
    return out;
  }
  if (config.update_rule == MetaUpdateRule::kFomaml) {
    // First-order MAML: the query gradient at theta_i is this task's
    // contribution to the meta-gradient.
    out.contribution = std::move(query_grad);
  } else {
    // Reptile: move toward the adapted parameters; expressed as a gradient
    // so the same meta step applies.
    double inv_beta = 1.0 / config.beta;
    out.contribution.resize(theta.size());
    for (size_t i = 0; i < theta.size(); ++i) {
      out.contribution[i] = (theta[i] - adapted[i]) * inv_beta;
    }
  }
  out.contributing = true;
  return out;
}

}  // namespace

void MetaTrainWavefront(const nn::EncoderDecoder& model,
                        const std::vector<LearningTask>& tasks,
                        std::vector<MetaTrainLeaf>& leaves,
                        const MetaTrainConfig& config, Rng& rng) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& iterations_counter =
      registry.GetCounter("meta.iterations");
  static obs::Gauge& query_loss_gauge =
      registry.GetGauge("meta.avg_query_loss");
  static obs::Histogram& round_width_hist =
      registry.GetHistogram("meta.round_width", obs::CountEdges());

  obs::TraceSpan train_span("meta.train");
  const size_t rounds =
      static_cast<size_t>(std::max(config.iterations, 0));

  // Alg. 3 line 2 for every round up front: leaf by leaf, each leaf draws
  // its `iterations` batches of m member tasks, the same draws in the same
  // order as training one leaf after another. The shared rng is consumed
  // only here, on the calling thread; the per-pick work below is RNG-free,
  // so 1-thread and N-thread runs are bit-identical. A round's picks are
  // laid out leaf-major: leaf l owns [first_pick[l], first_pick[l + 1]).
  std::vector<size_t> first_pick(leaves.size() + 1, 0);
  std::vector<size_t> pick_leaf;
  std::vector<std::vector<size_t>> batches(leaves.size());
  for (size_t l = 0; l < leaves.size(); ++l) {
    MetaTrainLeaf& leaf = leaves[l];
    TAMP_CHECK(!leaf.members->empty());
    TAMP_CHECK(leaf.theta->size() == model.param_count());
    leaf.result = MetaTrainResult{};
    leaf.result.meta_gradient.assign(leaf.theta->size(), 0.0);
    int m = std::min<int>(config.batch_size,
                          static_cast<int>(leaf.members->size()));
    first_pick[l + 1] = first_pick[l] + static_cast<size_t>(m);
    pick_leaf.resize(first_pick[l + 1], l);
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<size_t> batch = rng.SampleWithoutReplacement(
          leaf.members->size(), static_cast<size_t>(m));
      batches[l].insert(batches[l].end(), batch.begin(), batch.end());
    }
  }

  const size_t width = first_pick.back();
  std::vector<PickResult> picks(width);
  std::vector<bool> contributed(leaves.size(), false);
  for (size_t r = 0; r < rounds; ++r) {
    iterations_counter.Increment(static_cast<int64_t>(leaves.size()));
    round_width_hist.Record(static_cast<double>(width));
    // Every (leaf, pick) pair of the round is one parallel index.
    ParallelFor(width, [&](size_t j) {
      size_t l = pick_leaf[j];
      size_t m = first_pick[l + 1] - first_pick[l];
      size_t member = batches[l][r * m + (j - first_pick[l])];
      const LearningTask& task =
          tasks[static_cast<size_t>((*leaves[l].members)[member])];
      picks[j] = RunPick(model, task, *leaves[l].theta, config);
    });

    for (size_t l = 0; l < leaves.size(); ++l) {
      std::vector<double>& theta = *leaves[l].theta;
      MetaTrainResult& result = leaves[l].result;
      // Ordered reduction: accumulate in pick order, so the meta step is
      // bit-identical at any thread count.
      std::fill(result.meta_gradient.begin(), result.meta_gradient.end(),
                0.0);
      double loss_sum = 0.0;
      int contributing = 0;
      for (size_t j = first_pick[l]; j < first_pick[l + 1]; ++j) {
        const PickResult& pick = picks[j];
        if (!pick.contributing) continue;
        for (size_t i = 0; i < theta.size(); ++i) {
          result.meta_gradient[i] += pick.contribution[i];
        }
        loss_sum += pick.query_loss;
        ++contributing;
      }
      if (contributing == 0) continue;
      double inv = 1.0 / static_cast<double>(contributing);
      for (double& g : result.meta_gradient) g *= inv;
      nn::ClipGradientNorm(result.meta_gradient, config.grad_clip);
      // Alg. 3 line 9: meta update.
      for (size_t i = 0; i < theta.size(); ++i) {
        theta[i] -= config.alpha * result.meta_gradient[i];
      }
      result.avg_query_loss = loss_sum * inv;
      contributed[l] = true;
    }
  }
  // The gauge holds the last leaf's final loss, as training the leaves one
  // after another would leave it.
  for (size_t l = leaves.size(); l-- > 0;) {
    if (!contributed[l]) continue;
    query_loss_gauge.Set(leaves[l].result.avg_query_loss);
    break;
  }
}

MetaTrainResult MetaTrain(const nn::EncoderDecoder& model,
                          const std::vector<LearningTask>& tasks,
                          const std::vector<int>& members,
                          std::vector<double>& theta,
                          const MetaTrainConfig& config, Rng& rng) {
  std::vector<MetaTrainLeaf> leaves(1);
  leaves[0].members = &members;
  leaves[0].theta = &theta;
  MetaTrainWavefront(model, tasks, leaves, config, rng);
  return std::move(leaves[0].result);
}

double FineTune(const nn::EncoderDecoder& model, const LearningTask& task,
                std::vector<double>& theta, int steps, double learning_rate,
                const MetaTrainConfig& config) {
  static obs::Counter& nonfinite_counter =
      obs::MetricsRegistry::Global().GetCounter("meta.nonfinite_losses");
  std::vector<TrainingSample> samples = task.support;
  samples.insert(samples.end(), task.query.begin(), task.query.end());
  if (samples.empty() || steps <= 0) return 0.0;
  // As in AdaptKSteps: sample weights are step-invariant, compute once.
  std::vector<std::vector<double>> weights =
      BatchSampleWeights(config, samples);
  nn::Adam optimizer(theta.size(), learning_rate);
  std::vector<double> grad(theta.size());
  double loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    loss = BatchLossAndGradient(model, theta, samples, weights, grad);
    if (!std::isfinite(loss)) {
      // This worker's parameters (or data) went non-finite: stop here and
      // leave theta as it is. The online stage's forecast guard then
      // counts its predictions (sim.nonfinite_forecasts).
      nonfinite_counter.Increment();
      break;
    }
    nn::ClipGradientNorm(grad, config.grad_clip);
    optimizer.Step(theta, grad);
  }
  return loss;
}

similarity::GradientPath ComputeGradientPath(
    const nn::EncoderDecoder& model, const LearningTask& task,
    const std::vector<double>& probe_theta, int steps, double beta,
    const similarity::RandomProjector& projector) {
  TAMP_CHECK(probe_theta.size() == model.param_count());
  TAMP_CHECK(projector.input_dim() == model.param_count());
  similarity::GradientPath path;
  path.reserve(static_cast<size_t>(steps));
  MetaTrainConfig plain;  // Uniform weights for the probe.
  std::vector<double> theta = probe_theta;
  std::vector<double> grad(theta.size());
  const std::vector<TrainingSample>& samples =
      task.support.empty() ? task.query : task.support;
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    if (!samples.empty()) {
      BatchLossAndGradient(model, theta, samples, plain, grad);
      nn::ClipGradientNorm(grad, plain.grad_clip);
    }
    path.push_back(projector.Project(grad));
    for (size_t i = 0; i < theta.size(); ++i) theta[i] -= beta * grad[i];
  }
  return path;
}

}  // namespace tamp::meta
