// Micro-benchmarks of batch candidate generation: the dense T x W sweep
// vs the CandidateIndex-pruned path that PPI/KM/GGPSO share, plus the
// per-batch index build itself and one whole GGPSO solve at the replay's
// shape. RegisterMicroMetrics records the
// deterministic work counts (evaluations, pruned pairs, reduction factor)
// that tools/bench_compare gates on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/ggpso.h"
#include "data/workload.h"
#include "micro_main.h"

namespace {

using tamp::assign::CandidateGenStats;
using tamp::assign::CandidateIndex;
using tamp::assign::GenerateCandidates;

constexpr double kMatchRadiusKm = 1.0;

/// One mid-horizon Porto batch at paper-like density. Workers' predicted
/// routines are sampled from their real test trajectories (the NN
/// forecaster is out of scope for this micro target).
struct Batch {
  std::vector<tamp::assign::SpatialTask> tasks;
  std::vector<tamp::assign::CandidateWorker> workers;
  double now = 0.0;
};

/// Benchmarks sweep the worker-fleet size. With workers uniform over the
/// city, the pruned fraction is set by the prune-radius-to-area ratio and
/// is roughly scale-free, so both paths grow linearly in W and indexed
/// wins by a constant factor; the sweep shows that factor holds as the
/// per-batch index build amortizes.
constexpr int kWorkerSizes[] = {60, 240, 960};

const Batch& PortoBatch(int num_workers) {
  static std::map<int, Batch> cache;
  auto it = cache.find(num_workers);
  if (it != cache.end()) return it->second;

  tamp::data::WorkloadConfig config;
  config.kind = tamp::data::WorkloadKind::kPortoDidi;
  config.num_workers = num_workers;
  config.num_train_days = 1;
  config.num_tasks = 3000;
  config.num_historical_tasks = 50;
  config.seed = 20250707;
  tamp::data::Workload workload = tamp::data::GenerateWorkload(config);

  Batch b;
  b.now = workload.task_stream[workload.task_stream.size() / 2]
              .release_time_min;
  // Everything alive at `now` plus the following two hours of releases: a
  // backlog-scale batch (a few hundred tasks), the regime the fig-7
  // task-count sweeps stress.
  for (const tamp::assign::SpatialTask& task : workload.task_stream) {
    if (task.release_time_min <= b.now + 120.0 && task.deadline_min > b.now) {
      b.tasks.push_back(task);
    }
  }
  for (size_t w = 0; w < workload.workers.size(); ++w) {
    const tamp::data::WorkerRecord& record = workload.workers[w];
    tamp::assign::CandidateWorker cw;
    cw.id = record.id;
    for (int s = 1; s <= 5; ++s) {
      const double t = b.now + 10.0 * s;
      cw.predicted.push_back({record.test.PositionAt(t), t});
    }
    cw.current_location = record.test.PositionAt(b.now);
    cw.detour_budget_km = record.detour_budget_km;
    cw.speed_kmpm = record.speed_kmpm;
    cw.matching_rate =
        0.2 + 0.6 * static_cast<double>(w) /
                  static_cast<double>(workload.workers.size());
    b.workers.push_back(std::move(cw));
  }
  return cache.emplace(num_workers, std::move(b)).first->second;
}

void BM_CandidateIndexBuild(benchmark::State& state) {
  const Batch& batch = PortoBatch(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    CandidateIndex index(batch.workers);
    benchmark::DoNotOptimize(index.num_points());
  }
}
BENCHMARK(BM_CandidateIndexBuild)->Arg(60)->Arg(240)->Arg(960);

void BM_GenerateCandidatesDense(benchmark::State& state) {
  const Batch& batch = PortoBatch(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto table = GenerateCandidates(batch.tasks, batch.workers,
                                    kMatchRadiusKm, batch.now, nullptr);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_GenerateCandidatesDense)->Arg(60)->Arg(240)->Arg(960);

void BM_GenerateCandidatesIndexed(benchmark::State& state) {
  const Batch& batch = PortoBatch(static_cast<int>(state.range(0)));
  // Index build amortizes over the batch's queries but is part of the
  // per-batch cost, so it stays inside the timed loop.
  for (auto _ : state) {
    CandidateIndex index(batch.workers);
    auto table = GenerateCandidates(batch.tasks, batch.workers,
                                    kMatchRadiusKm, batch.now, &index);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_GenerateCandidatesIndexed)->Arg(60)->Arg(240)->Arg(960);

/// One GGPSO solve (candidates, then the whole generation loop) over the
/// first range(0) tasks of the batch against range(1) workers. A replay
/// trigger sees about 10 available workers: {19, 10} is a `train`-style
/// pool, {200, 10} a surge backlog.
void BM_GgpsoAssign(benchmark::State& state) {
  const Batch& batch = PortoBatch(static_cast<int>(state.range(1)));
  const size_t num_tasks =
      std::min(batch.tasks.size(), static_cast<size_t>(state.range(0)));
  const std::vector<tamp::assign::SpatialTask> tasks(
      batch.tasks.begin(),
      batch.tasks.begin() + static_cast<std::ptrdiff_t>(num_tasks));
  tamp::assign::GgpsoConfig config;
  config.match_radius_km = kMatchRadiusKm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tamp::assign::GgpsoAssign(tasks, batch.workers, batch.now, config)
            .pairs.size());
  }
  state.counters["tasks"] = static_cast<double>(num_tasks);
}
BENCHMARK(BM_GgpsoAssign)->Args({19, 10})->Args({200, 10});

}  // namespace

namespace tamp::bench {

void RegisterMicroMetrics(JsonReport& report) {
  for (int num_workers : kWorkerSizes) {
    const Batch& batch = PortoBatch(num_workers);
    CandidateIndex index(batch.workers);
    CandidateGenStats dense, indexed;
    GenerateCandidates(batch.tasks, batch.workers, kMatchRadiusKm, batch.now,
                       nullptr, &dense);
    GenerateCandidates(batch.tasks, batch.workers, kMatchRadiusKm, batch.now,
                       &index, &indexed);
    const std::string prefix =
        "candidates.w" + std::to_string(num_workers) + ".";
    report.AddMetric(prefix + "tasks", static_cast<double>(batch.tasks.size()));
    report.AddMetric(prefix + "index_points",
                     static_cast<double>(index.num_points()));
    report.AddMetric(prefix + "dense_evals",
                     static_cast<double>(dense.evaluated));
    report.AddMetric(prefix + "indexed_evals",
                     static_cast<double>(indexed.evaluated));
    report.AddMetric(prefix + "pruned", static_cast<double>(indexed.pruned));
    report.AddMetric(prefix + "eval_reduction_x",
                     static_cast<double>(dense.evaluated) /
                         static_cast<double>(indexed.evaluated));
  }
}

}  // namespace tamp::bench
