#pragma once

// Serial reference for meta::Taml and meta::MetaTrain: the depth-first
// recursion that meta-trains one leaf after another, each leaf drawing its
// batch from the shared rng at the start of every iteration, picks run in
// batch order on the calling thread. Production runs all leaves as one
// wavefront (meta::MetaTrainWavefront) and must match this bit for bit:
// thetas, results, the rng's final state, the meta.iterations /
// meta.adapt_steps counts and the final meta.avg_query_loss gauge.

#include <algorithm>
#include <vector>

#include "cluster/task_tree.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/rng.h"
#include "meta/meta_training.h"
#include "meta/taml.h"
#include "nn/encoder_decoder.h"
#include "nn/optimizer.h"

namespace tamp::meta::oracle {

inline MetaTrainResult MetaTrain(const nn::EncoderDecoder& model,
                                 const std::vector<LearningTask>& tasks,
                                 const std::vector<int>& members,
                                 std::vector<double>& theta,
                                 const MetaTrainConfig& config, Rng& rng) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& iterations_counter = registry.GetCounter("meta.iterations");
  obs::Counter& adapt_steps_counter = registry.GetCounter("meta.adapt_steps");
  obs::Gauge& query_loss_gauge = registry.GetGauge("meta.avg_query_loss");
  TAMP_CHECK(!members.empty());
  TAMP_CHECK(theta.size() == model.param_count());

  MetaTrainResult result;
  result.meta_gradient.assign(theta.size(), 0.0);
  for (int iter = 0; iter < config.iterations; ++iter) {
    iterations_counter.Increment();
    int m = std::min<int>(config.batch_size, static_cast<int>(members.size()));
    std::vector<size_t> batch = rng.SampleWithoutReplacement(
        members.size(), static_cast<size_t>(m));

    std::fill(result.meta_gradient.begin(), result.meta_gradient.end(), 0.0);
    double loss_sum = 0.0;
    int contributing = 0;
    for (size_t pick : batch) {
      const LearningTask& task = tasks[static_cast<size_t>(members[pick])];
      if (task.support.empty() || task.query.empty()) continue;
      std::vector<double> adapted =
          AdaptKSteps(model, theta, task.support, config.adapt_steps,
                      config.beta, config);
      adapt_steps_counter.Increment(config.adapt_steps);
      std::vector<double> query_grad(theta.size(), 0.0);
      loss_sum +=
          BatchLossAndGradient(model, adapted, task.query, config, query_grad);
      for (size_t i = 0; i < theta.size(); ++i) {
        result.meta_gradient[i] +=
            config.update_rule == MetaUpdateRule::kFomaml
                ? query_grad[i]
                : (theta[i] - adapted[i]) * (1.0 / config.beta);
      }
      ++contributing;
    }
    if (contributing == 0) continue;
    double inv = 1.0 / static_cast<double>(contributing);
    for (double& g : result.meta_gradient) g *= inv;
    nn::ClipGradientNorm(result.meta_gradient, config.grad_clip);
    for (size_t i = 0; i < theta.size(); ++i) {
      theta[i] -= config.alpha * result.meta_gradient[i];
    }
    result.avg_query_loss = loss_sum * inv;
    query_loss_gauge.Set(result.avg_query_loss);
  }
  return result;
}

inline TamlResult Taml(cluster::TaskTreeNode& node,
                       const std::vector<LearningTask>& tasks,
                       const nn::EncoderDecoder& model,
                       const MetaTrainConfig& config, Rng& rng) {
  TAMP_CHECK(node.theta.size() == model.param_count());
  TamlResult result;
  if (node.is_leaf()) {
    MetaTrainResult trained =
        oracle::MetaTrain(model, tasks, node.tasks, node.theta, config, rng);
    result.avg_loss = trained.avg_query_loss;
    result.gradient = std::move(trained.meta_gradient);
    return result;
  }
  result.gradient.assign(model.param_count(), 0.0);
  for (auto& child : node.children) {
    TamlResult child_result = oracle::Taml(*child, tasks, model, config, rng);
    result.avg_loss += child_result.avg_loss;
    for (size_t i = 0; i < result.gradient.size(); ++i) {
      result.gradient[i] += child_result.gradient[i];
    }
  }
  double inv = 1.0 / static_cast<double>(node.children.size());
  result.avg_loss *= inv;
  for (double& g : result.gradient) g *= inv;
  nn::ClipGradientNorm(result.gradient, config.grad_clip);
  for (size_t i = 0; i < node.theta.size(); ++i) {
    node.theta[i] -= config.alpha * result.gradient[i];
  }
  return result;
}

}  // namespace tamp::meta::oracle
