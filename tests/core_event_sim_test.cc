#include "core/event_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/simulator.h"
#include "data/workload.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {
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

/// Bitwise SimMetrics comparison (assign_seconds is wall-clock and
/// deliberately excluded — everything else must match exactly).
void ExpectBitwiseEqual(const SimMetrics& a, const SimMetrics& b,
                        const char* context) {
  EXPECT_EQ(a.total_tasks, b.total_tasks) << context;
  EXPECT_EQ(a.assignments, b.assignments) << context;
  EXPECT_EQ(a.accepted, b.accepted) << context;
  EXPECT_EQ(a.completed, b.completed) << context;
  EXPECT_EQ(a.dropouts, b.dropouts) << context;
  EXPECT_EQ(a.total_cost_km, b.total_cost_km) << context;  // Bitwise.
}

// ---------------------------------------------------------------------------
// Hand-built workloads: availability windows, dropout, expiry ordering.
// ---------------------------------------------------------------------------

/// A worker parked at (x, y) for the whole test horizon — acceptance is
/// then a zero-detour formality, so each test controls outcomes purely
/// through sessions, deadlines, and the dropout model.
data::WorkerRecord StationaryWorker(int id, double x, double y,
                                    double horizon_end_min) {
  data::WorkerRecord record;
  record.id = id;
  // One sample per minute: the acceptance test plans against the sample
  // points inside Slice(now, now + horizon), so the routine must actually
  // carry points there.
  std::vector<geo::TimedPoint> points;
  for (double t = 0.0; t <= horizon_end_min; t += 1.0) {
    points.push_back({x, y, t});
  }
  record.test = geo::Trajectory(std::move(points));
  record.detour_budget_km = 4.0;
  record.speed_kmpm = 0.5;
  record.online_start_min = 0.0;
  record.online_end_min = horizon_end_min;
  record.availability = {{0.0, horizon_end_min}};
  return record;
}

assign::SpatialTask MakeTask(int id, double x, double y, double release_min,
                             double deadline_min) {
  assign::SpatialTask task;
  task.id = id;
  task.location = {x, y};
  task.release_time_min = release_min;
  task.deadline_min = deadline_min;
  return task;
}

/// Runs a hand-built workload through the event core directly (triggers on
/// the same cadence BatchSimulator schedules), returning metrics + stats
/// and optionally capturing the drained event sequence.
struct EventRun {
  SimMetrics metrics;
  EventStats stats;
};

EventRun RunEventHorizon(const data::Workload& workload,
                         const SimulatorConfig& config, AssignMethod method,
                         std::vector<SimEvent>* trace = nullptr) {
  nn::Seq2SeqConfig model_config;
  model_config.input_dim = data::kSampleInputDim;
  model_config.hidden_dim = 4;
  nn::EncoderDecoder model(model_config);
  BatchAssignStep step(workload, model, config);
  EventSimulator sim(workload, config, step);
  sim.set_event_trace(trace);
  const double start = workload.task_stream.front().release_time_min;
  double end = 0.0;
  for (const assign::SpatialTask& task : workload.task_stream) {
    end = std::max(end, task.deadline_min);
  }
  for (double now = start; now <= end; now += config.batch_window_min) {
    sim.ScheduleAssignTrigger(now);
  }
  std::vector<WorkerPredictor> predictors(workload.workers.size());
  EventRun run;
  run.metrics = sim.Run(method, predictors);
  run.stats = sim.stats();
  return run;
}

TEST(EventSimEdgeCaseTest, SameInstantExpiryBeatsAssignTrigger) {
  // Regression pin for the same-instant semantics: a task whose deadline
  // falls exactly on a batch instant must never be proposed at that
  // instant (kTaskExpiry sorts before kAssignTrigger). The worker logs in
  // at 11, so the only trigger that could serve task 0 is t=12 — exactly
  // its deadline.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{11.0, 200.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 12.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 10.0, 100.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  // Only task 1 is ever assigned; task 0 died on the trigger instant.
  EXPECT_EQ(run.metrics.assignments, 1);
  EXPECT_EQ(run.metrics.accepted, 1);
  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_EQ(run.metrics.dropouts, 0);
  // Both expiry events fire (task 1's lazily, after its acceptance).
  EXPECT_EQ(run.stats.task_expiries, 2);
  EXPECT_EQ(run.stats.task_arrivals, 2);
}

TEST(EventSimEdgeCaseTest, LogoutMidServiceStillCompletes) {
  // The worker accepts at t=10 (busy through the ~2-minute service) and
  // their session ends at t=11, mid-service. The accepted task still
  // completes — acceptance is a commitment — but the worker takes nothing
  // afterwards: task 1, released at 12.5 with a wide-open deadline, is
  // never assigned because the only worker is logged out.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{0.0, 11.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 100.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 12.5, 100.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  EXPECT_EQ(run.metrics.assignments, 1);
  EXPECT_EQ(run.metrics.accepted, 1);
  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_EQ(run.stats.worker_logins, 1);
  EXPECT_EQ(run.stats.worker_logouts, 1);
  // Exactly one completion event: the mid-service logout does not abort
  // the committed task (only the dropout model can).
  EXPECT_EQ(run.stats.worker_completions, 1);
}

TEST(EventSimEdgeCaseTest, SessionGapLeavesMidGapTaskUnserved) {
  // Churn-style availability: two short sessions with a dead gap between
  // them. A task that lives entirely inside the gap expires unserved even
  // though the worker is free, in budget, and in range the whole time.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{10.0, 12.0}, {20.0, 22.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 100.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 13.0, 19.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  // Task 0 is served in the first session; task 1 (alive only over the
  // triggers at 14/16/18, all inside the gap) never is.
  EXPECT_EQ(run.metrics.assignments, 1);
  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_EQ(run.stats.worker_logins, 2);
  EXPECT_EQ(run.stats.worker_logouts, 2);
}

TEST(EventSimEdgeCaseTest, CertainDropoutUnderBusyUntilArrival) {
  // dropout.prob == 1: every acceptance aborts mid-service. The draw is a
  // pure function of (worker, task), so the re-pooled task keeps drawing
  // the same abort until its deadline — nothing ever completes and no
  // detour cost is booked. busy_until_arrival exercises the commitment
  // variant of the busy window (the worker is 0.5 km from the task, so
  // arrival is strictly after the trigger).
  data::Workload workload;
  workload.dropout = {1.0, 99};
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.task_stream.push_back(MakeTask(0, 5.5, 5.0, 10.0, 30.0));

  SimulatorConfig config;
  config.busy_until_arrival = true;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  EXPECT_EQ(run.metrics.completed, 0);
  EXPECT_EQ(run.metrics.total_cost_km, 0.0);
  EXPECT_EQ(run.metrics.dropouts, run.metrics.accepted);
  // The aborted task re-pools and is re-accepted at later triggers.
  EXPECT_GE(run.metrics.dropouts, 2);
  EXPECT_EQ(run.stats.dropouts,
            static_cast<int64_t>(run.metrics.dropouts));
  // One completion event per acceptance, dropped or not.
  EXPECT_EQ(run.stats.worker_completions,
            static_cast<int64_t>(run.metrics.accepted));
  // Each abort re-arrives (the deadline cutoff eventually stops it).
  EXPECT_GE(run.stats.task_arrivals, run.stats.dropouts);
}

TEST(EventSimEdgeCaseTest, SkippedTriggersAreCounted) {
  // A trigger that finds no pending task, or tasks but nobody available,
  // must skip the solver yet still be accounted on sim.batch_skips. The
  // workload forces both skip kinds: after task 0 is served the pool sits
  // empty for ~40 minutes of triggers, and task 1 (released at 50) finds
  // every session already over.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{10.0, 12.0}, {30.0, 32.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 40.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 50.0, 60.0));

  SimulatorConfig config;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& skips = registry.GetCounter("sim.batch_skips");
  obs::Counter& batches = registry.GetCounter("sim.batches");

  const int64_t skips_before = skips.value();
  const int64_t batches_before = batches.value();
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  const int64_t run_skips = skips.value() - skips_before;
  const int64_t run_batches = batches.value() - batches_before;

  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_GT(run_skips, 0);
  EXPECT_GT(run_batches, 0);
  // Every trigger either reached the solver (sim.batches) or was skipped.
  EXPECT_EQ(run.stats.assign_triggers, run_batches + run_skips);
}

TEST(EventSimEdgeCaseTest, StatsAccountForEveryEvent) {
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{10.0, 12.0}, {20.0, 22.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 40.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 13.0, 19.0));

  SimulatorConfig config;
  std::vector<SimEvent> trace;
  EventRun run =
      RunEventHorizon(workload, config, AssignMethod::kLowerBound, &trace);
  EXPECT_EQ(run.stats.events,
            run.stats.task_arrivals + run.stats.task_expiries +
                run.stats.worker_logins + run.stats.worker_completions +
                run.stats.assign_triggers + run.stats.worker_logouts);
  EXPECT_EQ(run.stats.events, static_cast<int64_t>(trace.size()));
  // One trigger per batch window over [10, 40].
  EXPECT_EQ(run.stats.assign_triggers, 16);
  // The drained sequence respects the (time, kind, id) total order.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_FALSE(EventBefore(trace[i], trace[i - 1])) << "position " << i;
  }
}

// ---------------------------------------------------------------------------
// Trained-pipeline runs: thread-count determinism and the churn scenario.
// ---------------------------------------------------------------------------

data::WorkloadConfig TrainedWorkload(data::WorkloadKind kind) {
  data::WorkloadConfig config;
  config.kind = kind;
  config.num_workers = 12;
  config.num_train_days = 2;
  config.num_tasks = 60;
  config.num_historical_tasks = 300;
  config.seed = kind == data::WorkloadKind::kPortoDidi ? 33 : 44;
  return config;
}

PipelineConfig TrainedPipeline() {
  PipelineConfig config;
  config.trainer.model.hidden_dim = 6;
  config.trainer.meta.iterations = 3;
  config.trainer.fine_tune_steps = 3;
  config.trainer.projection_dim = 8;
  config.trainer.tree.game.k = 2;
  config.sim.prediction_horizon_steps = 4;
  config.sim.ggpso.generations = 10;
  config.sim.ggpso.population = 10;
  return config;
}

/// One Porto workload + one offline training pass, shared across the
/// tests (training dominates the suite's cost).
class TrainedEventSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TampPipeline trainer(TrainedPipeline());
    porto_ = new data::Workload(data::GenerateWorkload(
        TrainedWorkload(data::WorkloadKind::kPortoDidi)));
    porto_offline_ = new OfflineResult(trainer.TrainOffline(*porto_));
  }
  static void TearDownTestSuite() {
    delete porto_offline_;
    delete porto_;
    porto_offline_ = nullptr;
    porto_ = nullptr;
  }

  static data::Workload* porto_;
  static OfflineResult* porto_offline_;
};

data::Workload* TrainedEventSimTest::porto_ = nullptr;
OfflineResult* TrainedEventSimTest::porto_offline_ = nullptr;

TEST_F(TrainedEventSimTest, EventOrderIdenticalAcrossThreadCounts) {
  // The determinism contract: the drained event sequence — not just the
  // final metrics — is identical at any thread count, with a predicting
  // method so the fleet forecast fan-out actually runs in parallel.
  const PipelineConfig config = TrainedPipeline();
  nn::EncoderDecoder model(porto_offline_->models.model_config);
  std::vector<WorkerPredictor> predictors(porto_->workers.size());
  for (size_t w = 0; w < porto_->workers.size(); ++w) {
    predictors[w].params = &porto_offline_->models.worker_params[w];
    predictors[w].matching_rate =
        porto_offline_->eval.per_worker[w].matching_rate;
  }
  const double start = porto_->task_stream.front().release_time_min;
  double end = 0.0;
  for (const assign::SpatialTask& task : porto_->task_stream) {
    end = std::max(end, task.deadline_min);
  }

  std::vector<SimEvent> reference;
  SimMetrics reference_metrics;
  for (int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    BatchAssignStep step(*porto_, model, config.sim);
    EventSimulator sim(*porto_, config.sim, step);
    std::vector<SimEvent> trace;
    sim.set_event_trace(&trace);
    for (double now = start; now <= end;
         now += config.sim.batch_window_min) {
      sim.ScheduleAssignTrigger(now);
    }
    SimMetrics metrics = sim.Run(AssignMethod::kKm, predictors);
    if (threads == 1) {
      reference = trace;
      reference_metrics = metrics;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(trace, reference) << threads << " threads";
      ExpectBitwiseEqual(metrics, reference_metrics, "threads");
    }
  }
}

TEST_F(TrainedEventSimTest, ChurnScenarioRunsAndDropsTasks) {
  // End-to-end smoke of the dynamic-availability path on a generated
  // churn workload: sessions gate assignments, dropouts are recorded, and
  // the accounting identity completed == accepted - dropouts holds.
  data::WorkloadConfig config = TrainedWorkload(data::WorkloadKind::kPortoDidi);
  config.scenario = data::WorkloadScenario::kChurn;
  config.churn.dropout_prob = 0.5;
  data::Workload workload = data::GenerateWorkload(config);
  EXPECT_GT(workload.dropout.prob, 0.0);

  SimulatorConfig sim_config;
  EventRun run =
      RunEventHorizon(workload, sim_config, AssignMethod::kLowerBound);
  EXPECT_GT(run.metrics.accepted, 0);
  EXPECT_GT(run.metrics.dropouts, 0);
  EXPECT_EQ(run.metrics.completed,
            run.metrics.accepted - run.metrics.dropouts);
  // Churn splits each worker's window into several sessions.
  EXPECT_GT(run.stats.worker_logins,
            static_cast<int64_t>(workload.workers.size()));
  EXPECT_EQ(run.stats.worker_logins, run.stats.worker_logouts);
}

}  // namespace
}  // namespace tamp::core
