#include "meta/taml.h"

#include "common/check.h"
#include "nn/optimizer.h"

namespace tamp::meta {

namespace {

/// The tree's leaves in depth-first order, checking every node's theta.
void CollectLeaves(cluster::TaskTreeNode& node, size_t param_count,
                   std::vector<MetaTrainLeaf>& leaves) {
  TAMP_CHECK(node.theta.size() == param_count);
  if (node.is_leaf()) {
    leaves.push_back({&node.tasks, &node.theta, {}});
    return;
  }
  for (auto& child : node.children) {
    CollectLeaves(*child, param_count, leaves);
  }
}

/// Alg. 2 over trained leaves, consumed in depth-first order from `next`.
TamlResult ReduceSubtree(cluster::TaskTreeNode& node,
                         std::vector<MetaTrainLeaf>& leaves, size_t& next,
                         const MetaTrainConfig& config) {
  TamlResult result;
  if (node.is_leaf()) {
    // Alg. 2 lines 1-2: leaves ran Meta-Training on their own cluster.
    MetaTrainResult& trained = leaves[next++].result;
    result.avg_loss = trained.avg_query_loss;
    result.gradient = std::move(trained.meta_gradient);
    return result;
  }
  // Alg. 2 lines 3-5: average the children's losses and gradients.
  result.gradient.assign(node.theta.size(), 0.0);
  for (auto& child : node.children) {
    TamlResult child_result = ReduceSubtree(*child, leaves, next, config);
    result.avg_loss += child_result.avg_loss;
    for (size_t i = 0; i < result.gradient.size(); ++i) {
      result.gradient[i] += child_result.gradient[i];
    }
  }
  double inv = 1.0 / static_cast<double>(node.children.size());
  result.avg_loss *= inv;
  for (double& g : result.gradient) g *= inv;
  // Alg. 2 line 6: update this node's theta with the average gradient.
  nn::ClipGradientNorm(result.gradient, config.grad_clip);
  for (size_t i = 0; i < node.theta.size(); ++i) {
    node.theta[i] -= config.alpha * result.gradient[i];
  }
  return result;
}

}  // namespace

TamlResult Taml(cluster::TaskTreeNode& node,
                const std::vector<LearningTask>& tasks,
                const nn::EncoderDecoder& model, const MetaTrainConfig& config,
                Rng& rng) {
  // Leaves never read an interior theta, so all of them train first as one
  // wavefront; the interior updates then run bottom-up.
  std::vector<MetaTrainLeaf> leaves;
  CollectLeaves(node, model.param_count(), leaves);
  MetaTrainWavefront(model, tasks, leaves, config, rng);
  size_t next = 0;
  return ReduceSubtree(node, leaves, next, config);
}

void InitializeTreeParams(cluster::TaskTreeNode& root,
                          const std::vector<double>& theta) {
  root.theta = theta;
  for (auto& child : root.children) InitializeTreeParams(*child, theta);
}

const cluster::TaskTreeNode* FindLeafForTask(const cluster::TaskTreeNode& root,
                                             int task_id) {
  if (root.is_leaf()) {
    for (int t : root.tasks) {
      if (t == task_id) return &root;
    }
    return nullptr;
  }
  for (const auto& child : root.children) {
    const cluster::TaskTreeNode* found = FindLeafForTask(*child, task_id);
    if (found != nullptr) return found;
  }
  return nullptr;
}

namespace {

void SearchMostSimilar(const cluster::TaskTreeNode& node,
                       const std::function<double(int)>& similarity_to,
                       const cluster::TaskTreeNode** best,
                       double* best_score) {
  // Depth-first post-order: children first, then the node itself.
  for (const auto& child : node.children) {
    SearchMostSimilar(*child, similarity_to, best, best_score);
  }
  if (node.tasks.empty()) return;
  double sum = 0.0;
  for (int t : node.tasks) sum += similarity_to(t);
  double avg = sum / static_cast<double>(node.tasks.size());
  if (avg > *best_score) {
    *best_score = avg;
    *best = &node;
  }
}

}  // namespace

const cluster::TaskTreeNode* FindMostSimilarNode(
    const cluster::TaskTreeNode& root,
    const std::function<double(int)>& similarity_to) {
  const cluster::TaskTreeNode* best = &root;
  double best_score = -1.0;
  SearchMostSimilar(root, similarity_to, &best, &best_score);
  return best;
}

}  // namespace tamp::meta
