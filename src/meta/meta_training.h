#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "meta/learning_task.h"
#include "nn/encoder_decoder.h"
#include "similarity/learning_path.h"

namespace tamp::meta {

/// How the meta-gradient of Alg. 3 line 9 is formed.
enum class MetaUpdateRule {
  /// First-order MAML: the query-loss gradient at the adapted parameters
  /// (the default; see DESIGN.md for why this substitutes for the paper's
  /// second-order MAML).
  kFomaml,
  /// Reptile (Nichol et al.): the negated adaptation displacement
  /// (theta - theta_adapted) / beta. Cheaper — no query backward pass —
  /// and a useful ablation of the meta-update itself.
  kReptile,
};

/// Hyper-parameters of the meta-training loop (Algorithm 3) and the
/// per-worker adaptation that follows it.
struct MetaTrainConfig {
  double alpha = 0.05;   // Meta learning rate (outer update).
  double beta = 0.1;     // Adapt learning rate (inner update).
  int adapt_steps = 3;   // k inner steps per sampled task.
  int batch_size = 4;    // m tasks sampled per meta iteration.
  int iterations = 25;   // Meta iterations per leaf cluster.
  double grad_clip = 5.0;
  MetaUpdateRule update_rule = MetaUpdateRule::kFomaml;

  /// Per-location loss weight f_w (Eq. 7) evaluated at the ground-truth
  /// target points; empty means uniform weights (plain MSE), which is what
  /// the *-loss baseline variants use.
  std::function<double(const geo::Point&)> weight_fn;
};

/// Output of one Meta-Training run on a cluster.
struct MetaTrainResult {
  /// Average query loss over the final iteration (Alg. 3 line 10).
  double avg_query_loss = 0.0;
  /// The last meta-gradient (first-order), used by TAML's non-leaf updates.
  std::vector<double> meta_gradient;
};

/// Loss-step weights for a sample: f_w applied to each target point, or
/// empty (uniform) when no weight function is configured.
std::vector<double> SampleWeights(const MetaTrainConfig& config,
                                  const TrainingSample& sample);

/// SampleWeights for every sample of a batch, evaluated once. Returns an
/// empty outer vector when no weight function is configured (uniform).
/// Weights only depend on the sample targets, so multi-step loops (inner
/// adaptation, fine-tuning) compute them once instead of per step.
std::vector<std::vector<double>> BatchSampleWeights(
    const MetaTrainConfig& config, const std::vector<TrainingSample>& samples);

/// Average training loss and (accumulated) gradient of `params` over a set
/// of samples. Returns the mean loss; the mean gradient is *added* into
/// `grad` (which must be zeroed by the caller if desired).
double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const MetaTrainConfig& config,
                            std::vector<double>& grad);

/// Same, with the per-sample weights precomputed via BatchSampleWeights
/// (the hot path for multi-step loops).
double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const std::vector<std::vector<double>>& weights,
                            std::vector<double>& grad);

/// Adapts `theta` for `steps` SGD steps of rate `beta` on the samples,
/// returning the adapted copy (the MAML inner loop, Alg. 3 lines 4-7).
std::vector<double> AdaptKSteps(const nn::EncoderDecoder& model,
                                const std::vector<double>& theta,
                                const std::vector<TrainingSample>& samples,
                                int steps, double beta,
                                const MetaTrainConfig& config);

/// Meta-Training (Algorithm 3) on one cluster of learning tasks using
/// first-order MAML: each iteration samples m member tasks, adapts k steps
/// on each task's support set, and applies the mean query gradient at the
/// adapted parameters to `theta`. `members` indexes into `tasks`. A pick
/// whose query loss is non-finite is counted (meta.nonfinite_losses) and
/// left out of the mean. The one-leaf call of MetaTrainWavefront.
MetaTrainResult MetaTrain(const nn::EncoderDecoder& model,
                          const std::vector<LearningTask>& tasks,
                          const std::vector<int>& members,
                          std::vector<double>& theta,
                          const MetaTrainConfig& config, Rng& rng);

/// One leaf cluster of a meta-training wavefront: its member tasks (indices
/// into the task list), the theta that training updates in place, and the
/// training result.
struct MetaTrainLeaf {
  const std::vector<int>* members = nullptr;
  std::vector<double>* theta = nullptr;
  MetaTrainResult result;
};

/// Meta-Training on several independent leaf clusters at once, bitwise
/// equal to calling MetaTrain on each leaf in turn (rng included): every
/// leaf's batches are drawn up front in leaf order, then each iteration
/// runs the (leaf, pick) pairs of all leaves as one parallel region and
/// applies each leaf's meta step in pick order. meta.round_width records
/// the region's width.
void MetaTrainWavefront(const nn::EncoderDecoder& model,
                        const std::vector<LearningTask>& tasks,
                        std::vector<MetaTrainLeaf>& leaves,
                        const MetaTrainConfig& config, Rng& rng);

/// Per-worker fine-tuning after meta-initialization: `steps` Adam steps on
/// the worker's support + query data. Returns the final training loss. At
/// the first non-finite batch loss it counts meta.nonfinite_losses, stops,
/// and returns that loss with theta left at the parameters that produced
/// it.
double FineTune(const nn::EncoderDecoder& model, const LearningTask& task,
                std::vector<double>& theta, int steps, double learning_rate,
                const MetaTrainConfig& config);

/// Records the k-step gradient path Z^(i) of a learning task (Section
/// III-B "Learning path"): the gradient produced at each of the first k
/// adaptation steps starting from the shared probe parameters, each
/// random-projected by `projector` so the cosine similarity (Eq. 2) stays
/// cheap.
similarity::GradientPath ComputeGradientPath(
    const nn::EncoderDecoder& model, const LearningTask& task,
    const std::vector<double>& probe_theta, int steps, double beta,
    const similarity::RandomProjector& projector);

}  // namespace tamp::meta
