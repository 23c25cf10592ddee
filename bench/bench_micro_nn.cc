// Micro-benchmarks of the LSTM encoder-decoder: the gate nonlinearities
// (the repo's activation kernel against libm at the forecast shape),
// forward inference (what every online batch pays per worker), the
// training step (what meta-training pays per sample), the offline training
// layers on the calibrated Porto fleet (one worker's batch gradient; one
// TAML pass over the GTTAML tree), and the fleet-wide forecast rollout,
// worker-major on packed predictors (core::RolloutPredictBatch), with
// distinct per-worker parameters and a shared parameter vector.
// RegisterMicroMetrics records the deterministic nn.* work counts that
// tools/bench_compare gates on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "cluster/task_tree.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/rng.h"
#include "core/rollout.h"
#include "data/workload.h"
#include "geo/grid.h"
#include "meta/meta_training.h"
#include "meta/taml.h"
#include "meta/trainer.h"
#include "nn/activation.h"
#include "nn/packed_seq2seq.h"
#include "nn/encoder_decoder.h"

namespace {

constexpr int kSeqIn = 5;
constexpr int kHorizonSteps = 5;
constexpr double kNowMin = 600.0;
constexpr double kPeriodMin = 10.0;
constexpr int kMaxFleet = 960;

tamp::nn::Sequence MakeInput(int seq_in, int dim) {
  tamp::nn::Sequence input;
  for (int t = 0; t < seq_in; ++t) {
    std::vector<double> step(dim, 0.1 * (t + 1));
    input.push_back(std::move(step));
  }
  return input;
}

/// A synthetic fleet on one dataset's grid: per-worker fine-tuned-style
/// parameter vectors (all distinct, as after fine-tune), one shared
/// cluster-predictor vector (as before fine-tune), and short random-walk
/// observation windows. The NN cost is independent of trajectory realism,
/// so cheap walks keep the fixture fast while the grid extents and the
/// Table-III model shape match the dataset configuration.
struct Fleet {
  tamp::nn::Seq2SeqConfig config;
  tamp::geo::GridSpec grid;
  std::vector<std::vector<double>> worker_params;
  std::vector<double> shared_params;
  std::vector<std::vector<tamp::geo::Point>> recents;
};

Fleet* MakeFleet(const tamp::geo::GridSpec& grid, uint64_t seed) {
  auto* fleet = new Fleet{{}, grid, {}, {}, {}};
  fleet->config.input_dim = 3;
  fleet->config.hidden_dim = 16;
  fleet->config.output_dim = 2;
  fleet->config.seq_out = 1;
  tamp::Rng rng(seed);
  tamp::nn::EncoderDecoder model(fleet->config);
  fleet->shared_params = model.InitParams(rng);
  fleet->worker_params.reserve(kMaxFleet);
  fleet->recents.reserve(kMaxFleet);
  for (int w = 0; w < kMaxFleet; ++w) {
    fleet->worker_params.push_back(model.InitParams(rng));
    std::vector<tamp::geo::Point> walk;
    tamp::geo::Point p{rng.Uniform(0.0, grid.width_km()),
                       rng.Uniform(0.0, grid.height_km())};
    for (int s = 0; s < kSeqIn; ++s) {
      p.x += rng.Uniform(-0.5, 0.5);
      p.y += rng.Uniform(-0.5, 0.5);
      walk.push_back(grid.Clamp(p));
    }
    fleet->recents.push_back(std::move(walk));
  }
  return fleet;
}

const Fleet& PortoFleet() {
  // Porto/Didi gridding (28 x 14 km, 50 x 100 cells — data/workload.cc).
  static const Fleet* fleet =
      MakeFleet(tamp::geo::GridSpec(28.0, 14.0, 50, 100), 20250809);
  return *fleet;
}

const Fleet& GowallaFleet() {
  // Gowalla/Foursquare gridding (36 x 36 km, 60 x 60 cells).
  static const Fleet* fleet =
      MakeFleet(tamp::geo::GridSpec(36.0, 36.0, 60, 60), 20250810);
  return *fleet;
}

/// The simulator's forecast path: the first `fleet_size` workers'
/// predictors packed once, as BatchAssignStep packs them per run, then one
/// worker-major rollout per Run. `shared` selects the cluster-predictor
/// regime where every row runs one parameter vector.
class PackedFleetRollout {
 public:
  PackedFleetRollout(const Fleet& fleet, size_t fleet_size, bool shared)
      : fleet_(fleet),
        engine_(fleet.config),
        packs_(shared ? 1 : fleet_size),
        rows_(fleet_size),
        recents_(fleet.recents.begin(),
                 fleet.recents.begin() +
                     static_cast<std::ptrdiff_t>(fleet_size)) {
    for (size_t p = 0; p < packs_.size(); ++p) {
      engine_.Pack(shared ? fleet.shared_params : fleet.worker_params[p],
                   &packs_[p]);
    }
    for (size_t w = 0; w < fleet_size; ++w) {
      rows_[w] = &packs_[shared ? 0 : w];
    }
  }

  /// One fleet forecast; returns the number of predicted points.
  size_t Run(tamp::core::FleetForecastScratch& scratch,
             std::vector<std::vector<tamp::geo::TimedPoint>>& out) const {
    tamp::core::RolloutPredictBatch(engine_, rows_, recents_, fleet_.grid,
                                    kHorizonSteps, kNowMin, kPeriodMin,
                                    scratch, &out);
    size_t points = 0;
    for (const auto& row : out) points += row.size();
    return points;
  }

 private:
  const Fleet& fleet_;
  tamp::nn::PackedSeq2Seq engine_;
  std::vector<tamp::nn::PackedSeq2SeqParams> packs_;
  std::vector<const tamp::nn::PackedSeq2SeqParams*> rows_;
  std::vector<std::vector<tamp::geo::Point>> recents_;
};

/// One cell step's gate block at the forecast shape: 4H = 64 gate rows
/// (H = 16, the Table-III model) by 10 worker columns, the free-worker
/// count of a `surge` trigger. Each iteration restores the
/// pre-activations, then `activate`s all 640 in place, as a full-width
/// tile does. The `kernel` rows run nn::SigmoidInPlace / nn::TanhInPlace,
/// the `libm` rows the element-wise formula the kernel replaced.
void ActivateGateBlock(benchmark::State& state,
                       void (*activate)(double*, size_t)) {
  constexpr size_t kGateElements = 64 * 10;
  tamp::Rng rng(19);
  std::vector<double> sample(kGateElements);
  for (double& v : sample) v = rng.Uniform(-6.0, 6.0);
  std::vector<double> z(kGateElements);
  for (auto _ : state) {
    std::copy(sample.begin(), sample.end(), z.begin());
    activate(z.data(), z.size());
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kGateElements));
}

void LibmSigmoid(double* v, size_t n) {
  for (size_t j = 0; j < n; ++j) v[j] = 1.0 / (1.0 + std::exp(-v[j]));
}

void LibmTanh(double* v, size_t n) {
  for (size_t j = 0; j < n; ++j) v[j] = std::tanh(v[j]);
}

void BM_Sigmoid(benchmark::State& state, void (*activate)(double*, size_t)) {
  ActivateGateBlock(state, activate);
}
BENCHMARK_CAPTURE(BM_Sigmoid, kernel, tamp::nn::SigmoidInPlace);
BENCHMARK_CAPTURE(BM_Sigmoid, libm, LibmSigmoid);

void BM_Tanh(benchmark::State& state, void (*activate)(double*, size_t)) {
  ActivateGateBlock(state, activate);
}
BENCHMARK_CAPTURE(BM_Tanh, kernel, tamp::nn::TanhInPlace);
BENCHMARK_CAPTURE(BM_Tanh, libm, LibmTanh);

void BM_EncoderDecoderPredict(benchmark::State& state) {
  tamp::nn::Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = static_cast<int>(state.range(0));
  tamp::Rng rng(3);
  tamp::nn::EncoderDecoder model(config);
  auto params = model.InitParams(rng);
  auto input = MakeInput(5, 3);
  for (auto _ : state) {
    auto pred = model.Predict(params, input);
    benchmark::DoNotOptimize(pred[0][0]);
  }
}
BENCHMARK(BM_EncoderDecoderPredict)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EncoderDecoderTrainStep(benchmark::State& state) {
  tamp::nn::Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = static_cast<int>(state.range(0));
  tamp::Rng rng(5);
  tamp::nn::EncoderDecoder model(config);
  auto params = model.InitParams(rng);
  auto input = MakeInput(5, 3);
  tamp::nn::Sequence target = {{0.5, 0.5}};
  std::vector<double> grad(params.size(), 0.0);
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = model.LossAndGradient(params, input, target, {}, grad);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_EncoderDecoderTrainStep)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_PredictBySeqIn(benchmark::State& state) {
  tamp::nn::Seq2SeqConfig config;
  config.input_dim = 3;
  tamp::Rng rng(7);
  tamp::nn::EncoderDecoder model(config);
  auto params = model.InitParams(rng);
  auto input = MakeInput(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    auto pred = model.Predict(params, input);
    benchmark::DoNotOptimize(pred[0][0]);
  }
}
BENCHMARK(BM_PredictBySeqIn)->Arg(1)->Arg(5)->Arg(10)->Arg(20);

/// The calibrated Porto training fleet (the repository benchmark's
/// `train` workload) with its GTTAML learning task tree. The tree comes
/// from a Train run with no meta iterations and no fine-tune, so building
/// it costs only the similarity factors and the clustering.
struct PortoTraining {
  tamp::meta::TrainerConfig config;
  std::vector<tamp::meta::LearningTask> tasks;
  std::unique_ptr<tamp::cluster::TaskTreeNode> tree;
};

const PortoTraining& PortoTrainingFleet() {
  static const PortoTraining* training = [] {
    auto* out = new PortoTraining;
    tamp::bench::BenchScale scale;
    out->tasks = tamp::data::GenerateWorkload(
                     tamp::bench::BaseWorkloadConfig(
                         tamp::data::WorkloadKind::kPortoDidi, scale))
                     .learning_tasks;
    out->config = tamp::bench::BasePipelineConfig(scale).trainer;
    out->config.model.input_dim = tamp::data::kSampleInputDim;
    tamp::meta::TrainerConfig tree_only = out->config;
    tree_only.meta.iterations = 0;
    tree_only.fine_tune_steps = 0;
    out->tree = tamp::meta::MobilityTrainer(tree_only)
                    .Train(out->tasks, tamp::meta::MetaAlgorithm::kGttaml)
                    .tree;
    return out;
  }();
  return *training;
}

/// One fine-tune step's gradient: worker 0's support + query samples.
void BM_BatchLossAndGradientPorto(benchmark::State& state) {
  const PortoTraining& training = PortoTrainingFleet();
  tamp::nn::EncoderDecoder model(training.config.model);
  tamp::Rng rng(11);
  const std::vector<double> params = model.InitParams(rng);
  const tamp::meta::LearningTask& task = training.tasks.front();
  std::vector<tamp::meta::TrainingSample> samples = task.support;
  samples.insert(samples.end(), task.query.begin(), task.query.end());
  std::vector<double> grad(params.size());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    benchmark::DoNotOptimize(tamp::meta::BatchLossAndGradient(
        model, params, samples, training.config.meta, grad));
  }
  state.counters["samples"] = static_cast<double>(samples.size());
}
BENCHMARK(BM_BatchLossAndGradientPorto)->Unit(benchmark::kMillisecond);

/// One TAML pass (Alg. 2: every leaf's Meta-Training as one wavefront,
/// then the interior updates) over the Porto GTTAML tree, from a fresh
/// initialization each iteration.
void BM_TamlPorto(benchmark::State& state) {
  const PortoTraining& training = PortoTrainingFleet();
  tamp::nn::EncoderDecoder model(training.config.model);
  tamp::cluster::TaskTreeNode& tree = *training.tree;
  tamp::Rng init_rng(13);
  const std::vector<double> init = model.InitParams(init_rng);
  for (auto _ : state) {
    tamp::meta::InitializeTreeParams(tree, init);
    tamp::Rng rng(17);
    benchmark::DoNotOptimize(
        tamp::meta::Taml(tree, training.tasks, model, training.config.meta,
                         rng)
            .avg_loss);
  }
  state.counters["leaves"] =
      static_cast<double>(tamp::cluster::CountLeaves(tree));
}
BENCHMARK(BM_TamlPorto)->Unit(benchmark::kMillisecond);

void FleetBatchedBench(benchmark::State& state, const Fleet& fleet,
                       bool shared) {
  const PackedFleetRollout rollout(
      fleet, static_cast<size_t>(state.range(0)), shared);
  tamp::core::FleetForecastScratch scratch;  // Persists across iterations.
  std::vector<std::vector<tamp::geo::TimedPoint>> out;
  for (auto _ : state) benchmark::DoNotOptimize(rollout.Run(scratch, out));
}

void BM_FleetRolloutBatchedPorto(benchmark::State& state) {
  FleetBatchedBench(state, PortoFleet(), /*shared=*/false);
}
BENCHMARK(BM_FleetRolloutBatchedPorto)->Arg(10)->Arg(60)->Arg(240)->Arg(960);

void BM_FleetRolloutBatchedSharedPorto(benchmark::State& state) {
  FleetBatchedBench(state, PortoFleet(), /*shared=*/true);
}
BENCHMARK(BM_FleetRolloutBatchedSharedPorto)->Arg(60)->Arg(240)->Arg(960);

void BM_FleetRolloutBatchedGowalla(benchmark::State& state) {
  FleetBatchedBench(state, GowallaFleet(), /*shared=*/false);
}
BENCHMARK(BM_FleetRolloutBatchedGowalla)->Arg(60)->Arg(240)->Arg(960);

void BM_FleetRolloutBatchedSharedGowalla(benchmark::State& state) {
  FleetBatchedBench(state, GowallaFleet(), /*shared=*/true);
}
BENCHMARK(BM_FleetRolloutBatchedSharedGowalla)->Arg(60)->Arg(240)->Arg(960);

}  // namespace

#include "micro_main.h"

namespace tamp::bench {

void RegisterMicroMetrics(JsonReport& report) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cells = registry.GetCounter("nn.forecast_cells");
  obs::Counter& gemm = registry.GetCounter("nn.batched_gemm_calls");
  obs::Counter& rows = registry.GetCounter("nn.batch_rows");

  struct Dataset {
    const char* name;
    const Fleet& fleet;
  };
  const Dataset datasets[] = {{"porto", PortoFleet()},
                              {"gowalla", GowallaFleet()}};
  const size_t fleet_sizes[] = {60, 240, 960};

  core::FleetForecastScratch scratch;
  std::vector<std::vector<geo::TimedPoint>> out;
  for (const Dataset& ds : datasets) {
    for (size_t fleet_size : fleet_sizes) {
      // The scalar path runs one LstmCell::Forward per (row, cell step):
      // ceil(horizon / seq_out) engine passes of (seq_in + seq_out) steps.
      const auto& cfg = ds.fleet.config;
      const int64_t outer =
          (kHorizonSteps + cfg.seq_out - 1) / cfg.seq_out;
      const int64_t scalar_cell_calls =
          static_cast<int64_t>(fleet_size) * outer *
          (kSeqIn + cfg.seq_out);

      const int64_t cells_before = cells.value();
      const int64_t gemm_before = gemm.value();
      const int64_t rows_before = rows.value();
      (void)PackedFleetRollout(ds.fleet, fleet_size, /*shared=*/false)
          .Run(scratch, out);
      const int64_t batched_cells = cells.value() - cells_before;
      const int64_t batched_rows = rows.value() - rows_before;
      const int64_t shared_cells_before = cells.value();
      (void)PackedFleetRollout(ds.fleet, fleet_size, /*shared=*/true)
          .Run(scratch, out);
      const int64_t shared_cells = cells.value() - shared_cells_before;

      // The worker-major contract: the scalar path's per-row cell work
      // whether or not rows share a predictor, and no batched GEMM.
      TAMP_CHECK(batched_cells == scalar_cell_calls);
      TAMP_CHECK(shared_cells == scalar_cell_calls);
      TAMP_CHECK(gemm.value() == gemm_before);

      const std::string prefix =
          std::string("nn.") + ds.name + ".w" + std::to_string(fleet_size);
      report.AddMetric(prefix + ".scalar_cell_calls",
                       static_cast<double>(scalar_cell_calls));
      report.AddMetric(prefix + ".forecast_cells",
                       static_cast<double>(batched_cells));
      report.AddMetric(prefix + ".batch_rows",
                       static_cast<double>(batched_rows));
    }
  }
}

}  // namespace tamp::bench
