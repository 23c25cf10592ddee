#include "layers.h"

#include <algorithm>
#include <memory>
#include <string>

#include "assign/bounds.h"
#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/ggpso.h"
#include "assign/km_assigner.h"
#include "assign/ppi.h"
#include "checks.h"
#include "cluster/task_tree.h"
#include "common/check.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "core/rollout.h"
#include "core/ta_loss.h"
#include "matching/hungarian.h"
#include "meta/meta_training.h"
#include "meta/taml.h"
#include "nn/batched_seq2seq.h"
#include "similarity/kernel.h"
#include "similarity/learning_path.h"
#include "similarity/wasserstein.h"

namespace perfbench {

namespace {

using tamp::core::AssignMethod;

// MobilityTrainer::Train's private derivations of the learning-path probe
// and projector seeds from TrainerConfig::seed. If Train changes them the
// split stops being bit-exact and the benchmark falls back to timing Train.
constexpr uint64_t kProbeSeedMix = 0xA5A5A5A5ULL;
constexpr uint64_t kProjectorSeedMix = 0x5A5A5A5AULL;

tamp::similarity::PairwiseSimilarity MakeFactor(
    tamp::meta::Factor factor, const tamp::meta::TrainerConfig& config,
    const std::vector<tamp::meta::LearningTask>& tasks,
    const std::vector<tamp::similarity::GradientPath>& paths) {
  const int n = static_cast<int>(tasks.size());
  switch (factor) {
    case tamp::meta::Factor::kDistribution:
      return {n, [&config, &tasks](int i, int j) {
                return tamp::similarity::DistributionSimilarity(
                    tasks[static_cast<size_t>(i)].location_cloud,
                    tasks[static_cast<size_t>(j)].location_cloud,
                    config.sliced_projections, config.sim_d_scale_km);
              }};
    case tamp::meta::Factor::kSpatial:
      return {n, [&config, &tasks](int i, int j) {
                return tamp::similarity::SpatialSimilarity(
                    tasks[static_cast<size_t>(i)].pois,
                    tasks[static_cast<size_t>(j)].pois, config.kernel);
              }};
    case tamp::meta::Factor::kLearningPath:
      return {n, [&paths](int i, int j) {
                return tamp::similarity::LearningPathSimilarity(
                    paths[static_cast<size_t>(i)],
                    paths[static_cast<size_t>(j)]);
              }};
  }
  TAMP_CHECK_MSG(false, "unknown similarity factor");
  return {0, nullptr};
}

/// GTTAML training as MobilityTrainer::Train runs it, one public call per
/// sub-layer, each under its span.
std::vector<std::vector<double>> SplitTrain(
    const tamp::nn::EncoderDecoder& model,
    const tamp::meta::TrainerConfig& config,
    const std::vector<tamp::meta::LearningTask>& tasks) {
  tamp::Rng rng(config.seed);
  std::vector<tamp::similarity::GradientPath> paths;
  {
    tamp::obs::TraceSpan span("bench.similarity.paths");
    tamp::Rng probe_rng(config.seed ^ kProbeSeedMix);
    const std::vector<double> probe = model.InitParams(probe_rng);
    const tamp::similarity::RandomProjector projector(
        model.param_count(), static_cast<size_t>(config.projection_dim),
        config.seed ^ kProjectorSeedMix);
    paths = tamp::ParallelMap<tamp::similarity::GradientPath>(
        tasks.size(), [&](size_t t) {
          return tamp::meta::ComputeGradientPath(model, tasks[t], probe,
                                                 config.path_steps,
                                                 config.meta.beta, projector);
        });
  }
  std::vector<tamp::similarity::PairwiseSimilarity> factors;
  factors.reserve(config.factors.size());
  {
    tamp::obs::TraceSpan span("bench.similarity.factors");
    for (tamp::meta::Factor f : config.factors) {
      factors.push_back(MakeFactor(f, config, tasks, paths));
      factors.back().Materialize();
    }
  }
  std::unique_ptr<tamp::cluster::TaskTreeNode> tree;
  {
    tamp::obs::TraceSpan span("bench.cluster.tree");
    std::vector<const tamp::similarity::PairwiseSimilarity*> factor_ptrs;
    for (const auto& f : factors) factor_ptrs.push_back(&f);
    tamp::cluster::TaskTreeConfig tree_config = config.tree;
    tree_config.use_game = true;
    tree = tamp::cluster::BuildLearningTaskTree(factor_ptrs, tree_config, rng);
  }
  {
    tamp::obs::TraceSpan span("bench.meta.taml");
    tamp::meta::InitializeTreeParams(*tree, model.InitParams(rng));
    tamp::meta::Taml(*tree, tasks, model, config.meta, rng);
  }
  std::vector<std::vector<double>> params(tasks.size());
  {
    tamp::obs::TraceSpan span("bench.meta.fine_tune");
    tamp::ParallelFor(tasks.size(), [&](size_t i) {
      const tamp::cluster::TaskTreeNode* leaf =
          tamp::meta::FindLeafForTask(*tree, static_cast<int>(i));
      TAMP_CHECK(leaf != nullptr);
      params[i] = leaf->theta;
      tamp::meta::FineTune(model, tasks[i], params[i], config.fine_tune_steps,
                           config.fine_tune_lr, config.meta);
    });
  }
  return params;
}

tamp::assign::AssignmentPlan Assign(AssignMethod method,
                                    const tamp::core::SimulatorConfig& sim,
                                    const std::vector<tamp::assign::SpatialTask>& tasks,
                                    const std::vector<tamp::assign::CandidateWorker>& workers,
                                    double now) {
  switch (method) {
    case AssignMethod::kLowerBound:
      return tamp::assign::LowerBoundAssign(tasks, workers, now);
    case AssignMethod::kKm:
      return tamp::assign::KmAssign(tasks, workers, now, sim.match_radius_km);
    case AssignMethod::kPpi: {
      tamp::assign::PpiConfig ppi = sim.ppi;
      ppi.match_radius_km = sim.match_radius_km;
      return tamp::assign::PpiAssign(tasks, workers, now, ppi);
    }
    case AssignMethod::kGgpso: {
      tamp::assign::GgpsoConfig ggpso = sim.ggpso;
      ggpso.match_radius_km = sim.match_radius_km;
      return tamp::assign::GgpsoAssign(tasks, workers, now, ggpso);
    }
    case AssignMethod::kUpperBound:
      break;
  }
  TAMP_CHECK_MSG(false, "the layer pass does not run the UB oracle");
  return {};
}

}  // namespace

TracedTraining TraceTraining(
    const tamp::core::PipelineConfig& pipeline,
    const tamp::data::Workload& fleet,
    const std::vector<std::vector<double>>& reference_params) {
  tamp::obs::TraceSpan root("bench.offline");
  tamp::meta::TrainerConfig config = pipeline.trainer;
  // As TampPipeline's constructor does: samples carry (x, y, time-of-day).
  config.model.input_dim = tamp::data::kSampleInputDim;
  std::unique_ptr<tamp::core::TaskOrientedWeighter> weighter;
  if (pipeline.use_ta_loss) {
    tamp::obs::TraceSpan span("bench.core.ta_weighter");
    weighter = std::make_unique<tamp::core::TaskOrientedWeighter>(
        fleet.grid, fleet.historical_task_locations, pipeline.ta_loss);
    config.meta.weight_fn = weighter->AsFunction();
  }
  tamp::meta::MobilityTrainer trainer(config);
  tamp::meta::TrainedModels models;
  TracedTraining traced;
  if (pipeline.meta_algorithm == tamp::meta::MetaAlgorithm::kGttaml) {
    tamp::obs::TraceSpan span("bench.meta.train");
    models.worker_params =
        SplitTrain(trainer.model(), config, fleet.learning_tasks);
    traced.split_exact = SameParams(models.worker_params, reference_params);
  }
  if (!traced.split_exact) {
    tamp::obs::TraceSpan span("bench.meta.train_fallback");
    models = trainer.Train(fleet.learning_tasks, pipeline.meta_algorithm);
  }
  {
    tamp::obs::TraceSpan span("bench.meta.evaluate");
    traced.eval = trainer.Evaluate(models, fleet.learning_tasks, fleet.grid,
                                   pipeline.sim.match_radius_km);
  }
  return traced;
}

LayerPassCounts LayerPass(const tamp::core::PipelineConfig& pipeline,
                          const tamp::data::Workload& day,
                          const tamp::core::OfflineResult& offline,
                          const std::vector<AssignMethod>& methods) {
  LayerPassCounts counts;
  if (day.task_stream.empty() || day.learning_tasks.empty() ||
      day.learning_tasks.front().support.empty()) {
    return counts;
  }
  const tamp::core::SimulatorConfig& sim = pipeline.sim;
  tamp::nn::Seq2SeqConfig model_config = pipeline.trainer.model;
  model_config.input_dim = tamp::data::kSampleInputDim;
  const tamp::nn::BatchedSeq2Seq engine(model_config);
  tamp::core::FleetForecastScratch scratch;
  // The simulator's observation window: the training samples' seq_in.
  const int observe_steps = static_cast<int>(
      day.learning_tasks.front().support.front().input.size());

  // BatchSimulator's trigger schedule: one per window from the first
  // release until the last deadline, accumulated the same way.
  const double start = day.task_stream.front().release_time_min;
  double end = 0.0;
  for (const auto& task : day.task_stream) end = std::max(end, task.deadline_min);

  tamp::obs::TraceSpan root("bench.layer_pass");
  std::vector<tamp::assign::SpatialTask> tasks;
  std::vector<tamp::assign::CandidateWorker> workers;
  std::vector<const std::vector<double>*> row_params;
  std::vector<std::vector<tamp::geo::Point>> recents;
  std::vector<std::vector<tamp::geo::TimedPoint>> forecasts;
  for (double now = start; now <= end; now += sim.batch_window_min) {
    tamp::obs::TraceSpan trigger("bench.trigger");
    tasks.clear();
    for (const auto& task : day.task_stream) {
      if (task.release_time_min <= now && task.deadline_min > now) {
        tasks.push_back(task);
      }
    }
    workers.clear();
    row_params.clear();
    recents.clear();
    for (size_t w = 0; w < day.workers.size(); ++w) {
      const tamp::data::WorkerRecord& record = day.workers[w];
      if (record.test.empty() || now < record.test.start_time() ||
          now > record.test.end_time() || !record.AvailableAt(now)) {
        continue;
      }
      tamp::assign::CandidateWorker cw;
      cw.id = record.id;
      cw.current_location = record.test.PositionAt(now);
      cw.detour_budget_km = record.detour_budget_km;
      cw.speed_kmpm = record.speed_kmpm;
      cw.matching_rate = offline.eval.per_worker[w].matching_rate;
      workers.push_back(std::move(cw));
      row_params.push_back(&offline.models.worker_params[w]);
      std::vector<tamp::geo::Point> recent;
      for (int s = observe_steps - 1; s >= 0; --s) {
        recent.push_back(record.test.PositionAt(now - s * sim.sample_period_min));
      }
      recents.push_back(std::move(recent));
    }
    if (tasks.empty() || workers.empty()) continue;
    ++counts.triggers;
    {
      tamp::obs::TraceSpan span("bench.nn.forecast");
      tamp::core::RolloutPredictBatch(engine, row_params, recents, day.grid,
                                      sim.prediction_horizon_steps, now,
                                      sim.sample_period_min, scratch,
                                      &forecasts);
    }
    for (size_t a = 0; a < workers.size(); ++a) {
      workers[a].predicted = std::move(forecasts[a]);
    }
    std::vector<std::vector<tamp::assign::TaskCandidate>> table;
    tamp::assign::CandidateGenStats stats;
    {
      tamp::obs::TraceSpan span("bench.assign.candidates");
      const tamp::assign::CandidateIndex index(workers);
      table = tamp::assign::GenerateCandidates(
          tasks, workers, sim.match_radius_km, now, &index, &stats);
    }
    counts.candidate_evals += stats.evaluated;
    // KmAssign's edge set: stage-3-feasible rows weighted 1 / (dis^min +
    // its default 1e-3 km floor).
    std::vector<tamp::matching::Edge> edges;
    for (size_t t = 0; t < table.size(); ++t) {
      counts.candidate_rows += static_cast<int64_t>(table[t].size());
      for (const tamp::assign::TaskCandidate& tc : table[t]) {
        if (!tc.stage3_feasible) continue;
        edges.push_back({static_cast<int>(t), tc.worker,
                         1.0 / (tc.min_dis + 1e-3)});
      }
    }
    for (AssignMethod method : methods) {
      tamp::obs::TraceSpan span(
          "bench.assign.solve." +
          std::string(tamp::core::AssignMethodName(method)));
      Assign(method, sim, tasks, workers, now);
    }
    {
      tamp::obs::TraceSpan span("bench.matching.solve");
      tamp::matching::MaxWeightMatching(static_cast<int>(tasks.size()),
                                        static_cast<int>(workers.size()),
                                        edges);
    }
  }
  return counts;
}

}  // namespace perfbench
