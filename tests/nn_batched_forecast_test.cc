// Bit-identity contract of the forecast engines against the scalar
// per-worker reference: the shared-parameter SoA engine
// (nn::BatchedSeq2Seq: raw PredictBatch vs Predict, scratch
// shrink-then-grow reuse, the trainer's Evaluate), the worker-major fleet
// rollout on packed predictors (nn::PackedSeq2Seq, core::RolloutPredictBatch)
// and the thread-invariant work counters. Every comparison is exact:
// EXPECT_EQ or memcmp on doubles, never approximate.
#include "nn/batched_seq2seq.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/rollout.h"
#include "core_rollout_oracle.h"
#include "geo/point.h"
#include "meta/trainer.h"
#include "nn/encoder_decoder.h"
#include "nn/packed_seq2seq.h"

namespace tamp::nn {
namespace {

/// Restores the parallel thread count on scope exit so a failing test
/// can't leak its thread setting into the rest of the binary.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

Sequence MakeWindow(tamp::Rng& rng, int steps, int dim) {
  Sequence window;
  for (int t = 0; t < steps; ++t) {
    std::vector<double> step;
    for (int d = 0; d < dim; ++d) step.push_back(rng.Uniform01());
    window.push_back(std::move(step));
  }
  return window;
}

void ExpectSequenceEq(const Sequence& a, const Sequence& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (size_t d = 0; d < a[t].size(); ++d) EXPECT_EQ(a[t][d], b[t][d]);
  }
}

/// Rows interleave three parameter groups (A B C A B A A C C B): shared
/// GEMM tiles and singleton GEMV runs coexist in one plan, and the
/// gather/scatter has to restore the caller's row order.
TEST(BatchedSeq2SeqTest, PredictBatchMatchesScalarBitwise) {
  for (int seq_out : {1, 3}) {
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      Seq2SeqConfig config;
      config.input_dim = 3;
      config.hidden_dim = 8;
      config.seq_out = seq_out;
      tamp::Rng rng(11);
      EncoderDecoder model(config);
      BatchedSeq2Seq engine(config);
      std::vector<std::vector<double>> groups = {
          model.InitParams(rng), model.InitParams(rng), model.InitParams(rng)};
      const int pattern[] = {0, 1, 2, 0, 1, 0, 0, 2, 2, 1};

      std::vector<Sequence> windows;
      std::vector<const std::vector<double>*> row_params;
      std::vector<const Sequence*> inputs;
      for (int r = 0; r < 10; ++r) {
        windows.push_back(MakeWindow(rng, 5, 3));
        row_params.push_back(&groups[pattern[r]]);
      }
      for (const Sequence& w : windows) inputs.push_back(&w);

      BatchedSeq2SeqScratch scratch;
      std::vector<Sequence> batched;
      engine.PredictBatch(row_params, inputs, &batched, scratch);

      ASSERT_EQ(batched.size(), windows.size());
      for (size_t r = 0; r < windows.size(); ++r) {
        Sequence scalar = model.Predict(*row_params[r], windows[r]);
        ExpectSequenceEq(batched[r], scalar);
      }
    }
  }
}

TEST(BatchedSeq2SeqTest, FleetRolloutMatchesScalarOnBothGrids) {
  const geo::GridSpec grids[] = {geo::GridSpec(28.0, 14.0, 50, 100),
                                 geo::GridSpec(36.0, 36.0, 60, 60)};
  for (const geo::GridSpec& grid : grids) {
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      Seq2SeqConfig config;
      config.input_dim = 3;
      config.hidden_dim = 6;
      config.seq_out = 3;  // horizon 7 => 3 + 3 + 1 truncated chunks.
      tamp::Rng rng(23);
      EncoderDecoder model(config);
      BatchedSeq2Seq engine(config);

      std::vector<std::vector<double>> params;
      std::vector<double> shared = model.InitParams(rng);
      std::vector<std::vector<geo::Point>> recents;
      std::vector<const std::vector<double>*> row_params;
      for (int w = 0; w < 9; ++w) {
        params.push_back(model.InitParams(rng));
        std::vector<geo::Point> walk;
        for (int s = 0; s < 4; ++s) {
          walk.push_back(grid.Clamp({rng.Uniform(0.0, grid.width_km()),
                                     rng.Uniform(0.0, grid.height_km())}));
        }
        recents.push_back(std::move(walk));
      }
      for (int w = 0; w < 9; ++w) {
        row_params.push_back(w % 3 == 0 ? &shared : &params[w]);
      }

      core::FleetForecastScratch scratch;
      std::vector<std::vector<geo::TimedPoint>> batched;
      core::RolloutPredictBatch(engine, row_params, recents, grid,
                                /*horizon_steps=*/7, /*now_min=*/600.0,
                                /*step_period_min=*/10.0, scratch, &batched);

      ASSERT_EQ(batched.size(), recents.size());
      for (size_t w = 0; w < recents.size(); ++w) {
        auto scalar = core::testing::RolloutPredict(
            model, *row_params[w], recents[w], grid, 7, 600.0, 10.0);
        ASSERT_EQ(batched[w].size(), scalar.size());
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(batched[w][i].loc.x, scalar[i].loc.x);
          EXPECT_EQ(batched[w][i].loc.y, scalar[i].loc.y);
          EXPECT_EQ(batched[w][i].time_min, scalar[i].time_min);
        }
      }
    }
  }
}

/// Bitwise equality of two doubles; a NaN only has to be NaN on both
/// sides, since a compiler may commute the scalar path's additions and so
/// pick the other operand's NaN payload or sign.
bool SameBits(double a, double b) {
  if (std::isnan(b)) return std::isnan(a);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The simulator's path: predictors packed once, rows keyed by worker
/// index. 70 workers (two rollout chunks) on both datasets' grids at 1 and
/// 4 threads; every third worker shares one predictor and worker 5's is
/// NaN. Each row must be bit for bit the scalar oracle's rollout (NaN for
/// NaN).
TEST(PackedSeq2SeqTest, WorkerMajorRolloutMatchesOracleBitwise) {
  const geo::GridSpec grids[] = {geo::GridSpec(28.0, 14.0, 50, 100),
                                 geo::GridSpec(36.0, 36.0, 60, 60)};
  for (int seq_out : {1, 3}) {
    Seq2SeqConfig config;
    config.input_dim = 3;
    config.hidden_dim = 16;
    config.seq_out = seq_out;
    tamp::Rng rng(53);
    EncoderDecoder model(config);
    PackedSeq2Seq engine(config);
    const std::vector<double> shared = model.InitParams(rng);
    const std::vector<double> poisoned(
        model.param_count(), std::numeric_limits<double>::quiet_NaN());
    const size_t workers = 70;
    std::vector<std::vector<double>> own;
    for (size_t w = 0; w < workers; ++w) own.push_back(model.InitParams(rng));
    std::vector<const std::vector<double>*> params(workers);
    for (size_t w = 0; w < workers; ++w) {
      params[w] = w == 5 ? &poisoned : w % 3 == 0 ? &shared : &own[w];
    }
    // One pack per worker, as BatchAssignStep::PackPredictors keys them.
    std::vector<PackedSeq2SeqParams> packs(workers);
    std::vector<const PackedSeq2SeqParams*> row_packs(workers);
    for (size_t w = 0; w < workers; ++w) {
      engine.Pack(*params[w], &packs[w]);
      row_packs[w] = &packs[w];
    }

    for (const geo::GridSpec& grid : grids) {
      std::vector<std::vector<geo::Point>> recents;
      for (size_t w = 0; w < workers; ++w) {
        std::vector<geo::Point> walk;
        for (int s = 0; s < 5; ++s) {
          walk.push_back(grid.Clamp({rng.Uniform(0.0, grid.width_km()),
                                     rng.Uniform(0.0, grid.height_km())}));
        }
        recents.push_back(std::move(walk));
      }
      for (int threads : {1, 4}) {
        ThreadCountGuard guard(threads);
        core::FleetForecastScratch scratch;
        std::vector<std::vector<geo::TimedPoint>> batched;
        core::RolloutPredictBatch(engine, row_packs, recents, grid,
                                  /*horizon_steps=*/7, /*now_min=*/1430.0,
                                  /*step_period_min=*/10.0, scratch,
                                  &batched);
        ASSERT_EQ(batched.size(), workers);
        int nan_points = 0;
        for (size_t w = 0; w < workers; ++w) {
          const auto scalar = core::testing::RolloutPredict(
              model, *params[w], recents[w], grid, 7, 1430.0, 10.0);
          ASSERT_EQ(batched[w].size(), scalar.size());
          for (size_t i = 0; i < scalar.size(); ++i) {
            if (std::isnan(scalar[i].loc.x)) ++nan_points;
            EXPECT_TRUE(SameBits(batched[w][i].loc.x, scalar[i].loc.x) &&
                        SameBits(batched[w][i].loc.y, scalar[i].loc.y) &&
                        SameBits(batched[w][i].time_min, scalar[i].time_min))
                << "seq_out=" << seq_out << " threads=" << threads
                << " worker=" << w << " step=" << i;
          }
        }
        // The poisoned worker's whole routine, and only it, is NaN.
        EXPECT_EQ(nan_points, 7);
      }
    }
  }
}

/// Scratch reuse must be stateless: a big batch, then a small one, then
/// big again — each must match a fresh-scratch run bit for bit (stale
/// tails from the larger plan must never leak into the smaller).
TEST(BatchedSeq2SeqTest, EngineScratchShrinkThenGrowParity) {
  Seq2SeqConfig config;
  config.input_dim = 2;
  config.hidden_dim = 7;
  config.seq_out = 2;
  tamp::Rng rng(31);
  EncoderDecoder model(config);
  BatchedSeq2Seq engine(config);

  std::vector<std::vector<double>> params;
  std::vector<Sequence> windows;
  for (int r = 0; r < 8; ++r) {
    params.push_back(model.InitParams(rng));
    windows.push_back(MakeWindow(rng, 6, 2));
  }

  auto run = [&](size_t rows, BatchedSeq2SeqScratch& scratch) {
    std::vector<const std::vector<double>*> row_params;
    std::vector<const Sequence*> inputs;
    for (size_t r = 0; r < rows; ++r) {
      row_params.push_back(&params[r]);
      inputs.push_back(&windows[r]);
    }
    std::vector<Sequence> out;
    engine.PredictBatch(row_params, inputs, &out, scratch);
    return out;
  };

  BatchedSeq2SeqScratch reused;
  for (size_t rows : {8u, 2u, 8u}) {
    std::vector<Sequence> with_reuse = run(rows, reused);
    BatchedSeq2SeqScratch fresh;
    std::vector<Sequence> from_fresh = run(rows, fresh);
    ASSERT_EQ(with_reuse.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      ExpectSequenceEq(with_reuse[r], from_fresh[r]);
    }
  }
}

/// The scalar path's PredictScratch has the same contract: long window,
/// short window, long again, all bitwise equal to scratch-free calls.
TEST(BatchedSeq2SeqTest, PredictScratchShrinkThenGrowParity) {
  Seq2SeqConfig config;
  config.hidden_dim = 9;
  config.seq_out = 2;
  tamp::Rng rng(37);
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);

  PredictScratch scratch;
  for (int steps : {8, 2, 8}) {
    Sequence window = MakeWindow(rng, steps, 2);
    Sequence with_scratch = model.Predict(params, window, &scratch);
    Sequence without = model.Predict(params, window);
    ExpectSequenceEq(with_scratch, without);
    EXPECT_EQ(model.EvalLoss(params, window, without, {}, &scratch),
              model.EvalLoss(params, window, without, {}));
  }
}

/// Evaluate runs each worker's eval set as one PredictBatch; its metrics
/// must equal per-sample EncoderDecoder::Predict calls folded the same way.
/// Worker 3's windows are shorter than the others': batches are per
/// worker, so only a worker's own windows must share a length.
TEST(BatchedSeq2SeqTest, TrainerEvaluateMatchesDirectPredict) {
  meta::TrainerConfig config;
  config.model.hidden_dim = 6;
  tamp::Rng rng(43);
  EncoderDecoder model(config.model);
  geo::GridSpec grid(20.0, 10.0, 50, 100);
  const double radius_km = 2.0;

  meta::TrainedModels models;
  models.model_config = config.model;
  std::vector<meta::LearningTask> tasks;
  for (int w = 0; w < 5; ++w) {
    models.worker_params.push_back(model.InitParams(rng));
    meta::LearningTask task;
    task.worker_id = w;
    for (int i = 0; i < 4; ++i) {
      meta::TrainingSample sample;
      sample.input = MakeWindow(rng, w == 3 ? 3 : 4, 2);
      sample.target.push_back({rng.Uniform01(), rng.Uniform01()});
      sample.target_km.push_back(
          {sample.target[0][0] * 20.0, sample.target[0][1] * 10.0});
      task.eval.push_back(std::move(sample));
    }
    tasks.push_back(std::move(task));
  }

  // The reference: Evaluate's per-worker fold over direct Predict calls.
  std::vector<meta::PredictionMetrics> expected(tasks.size());
  double se_sum = 0.0, ae_sum = 0.0;
  int matched_total = 0, points_total = 0;
  for (size_t w = 0; w < tasks.size(); ++w) {
    double se = 0.0, ae = 0.0;
    int matched = 0, points = 0;
    for (const meta::TrainingSample& sample : tasks[w].eval) {
      Sequence pred = model.Predict(models.worker_params[w], sample.input);
      for (size_t t = 0; t < pred.size(); ++t) {
        double d = geo::Distance(
            grid.Denormalize({pred[t][0], pred[t][1]}),
            grid.Denormalize({sample.target[t][0], sample.target[t][1]}));
        se += d * d;
        ae += d;
        if (d <= radius_km) ++matched;
        ++points;
      }
    }
    expected[w].rmse_km = std::sqrt(se / points);
    expected[w].mae_km = ae / points;
    expected[w].matching_rate = static_cast<double>(matched) / points;
    se_sum += se;
    ae_sum += ae;
    matched_total += matched;
    points_total += points;
  }

  for (int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    meta::EvalResult got =
        meta::MobilityTrainer(config).Evaluate(models, tasks, grid, radius_km);
    EXPECT_EQ(got.aggregate.rmse_km, std::sqrt(se_sum / points_total));
    EXPECT_EQ(got.aggregate.mae_km, ae_sum / points_total);
    EXPECT_EQ(got.aggregate.matching_rate,
              static_cast<double>(matched_total) / points_total);
    EXPECT_EQ(got.aggregate.num_points, points_total);
    ASSERT_EQ(got.per_worker.size(), expected.size());
    for (size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(got.per_worker[w].rmse_km, expected[w].rmse_km);
      EXPECT_EQ(got.per_worker[w].mae_km, expected[w].mae_km);
      EXPECT_EQ(got.per_worker[w].matching_rate, expected[w].matching_rate);
    }
  }

  // Mixed window lengths within one worker are rejected, not forecast.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  tasks[1].eval[2].input.pop_back();
  EXPECT_DEATH(
      meta::MobilityTrainer(config).Evaluate(models, tasks, grid, radius_km),
      "share one input length");
}

/// The work counters are part of the bench gate, so they must not depend
/// on the thread count. The cell count is the scalar path's
/// LstmCell::Forward call count either way; the shared-parameter engine
/// launches one GEMM per tile per cell step (plus one readout per decoder
/// step), and the worker-major rollout launches no batched GEMM at all.
TEST(BatchedSeq2SeqTest, WorkCountersAreExactAndThreadInvariant) {
  Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = 8;
  config.seq_out = 2;
  tamp::Rng rng(47);
  EncoderDecoder model(config);
  BatchedSeq2Seq engine(config);

  // 70 rows > kTileCols: two shared-parameter groups of 35 and 35 rows,
  // interleaved, plan as one tile each.
  std::vector<std::vector<double>> params = {model.InitParams(rng),
                                             model.InitParams(rng)};
  std::vector<Sequence> windows;
  std::vector<const std::vector<double>*> row_params;
  std::vector<const Sequence*> inputs;
  std::vector<std::vector<geo::Point>> recents;
  const geo::GridSpec grid(28.0, 14.0, 50, 100);
  const int rows = 70;
  for (int r = 0; r < rows; ++r) {
    windows.push_back(MakeWindow(rng, 5, 3));
    recents.push_back({});
    for (int s = 0; s < 5; ++s) {
      recents.back().push_back({rng.Uniform(0.0, 28.0), rng.Uniform(0.0, 14.0)});
    }
  }
  for (int r = 0; r < rows; ++r) {
    row_params.push_back(&params[static_cast<size_t>(r % 2)]);
    inputs.push_back(&windows[static_cast<size_t>(r)]);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cells = registry.GetCounter("nn.forecast_cells");
  obs::Counter& gemm = registry.GetCounter("nn.batched_gemm_calls");
  obs::Counter& batch_rows = registry.GetCounter("nn.batch_rows");
  struct Delta {
    int64_t cells = 0, gemm = 0, rows = 0;
  };
  auto measure = [&](auto&& run) {
    const Delta before{cells.value(), gemm.value(), batch_rows.value()};
    run();
    return Delta{cells.value() - before.cells, gemm.value() - before.gemm,
                 batch_rows.value() - before.rows};
  };

  Delta predict[2], rollout[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ThreadCountGuard guard(thread_counts[i]);
    BatchedSeq2SeqScratch scratch;
    std::vector<Sequence> out;
    predict[i] = measure(
        [&] { engine.PredictBatch(row_params, inputs, &out, scratch); });
    core::FleetForecastScratch fleet_scratch;
    std::vector<std::vector<geo::TimedPoint>> routines;
    rollout[i] = measure([&] {
      core::RolloutPredictBatch(engine, row_params, recents, grid,
                                /*horizon_steps=*/5, 600.0, 10.0,
                                fleet_scratch, &routines);
    });
  }

  // Scalar reference: one LstmCell::Forward per row per (seq_in + seq_out)
  // step, one Predict per row per engine pass.
  EXPECT_EQ(predict[0].cells, int64_t{rows} * (5 + 2));
  EXPECT_EQ(predict[0].gemm, 2 * (7 + 2));
  EXPECT_EQ(predict[0].rows, rows);
  // horizon 5 at seq_out 2: three passes per worker.
  EXPECT_EQ(rollout[0].cells, int64_t{rows} * 3 * (5 + 2));
  EXPECT_EQ(rollout[0].gemm, 0);
  EXPECT_EQ(rollout[0].rows, int64_t{rows} * 3);
  for (const Delta* d : {predict, rollout}) {
    EXPECT_EQ(d[0].cells, d[1].cells);
    EXPECT_EQ(d[0].gemm, d[1].gemm);
    EXPECT_EQ(d[0].rows, d[1].rows);
  }
}

}  // namespace
}  // namespace tamp::nn
