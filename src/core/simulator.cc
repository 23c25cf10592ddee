#include "core/simulator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <optional>
#include <string>

#include "assign/bounds.h"
#include "assign/km_assigner.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/event_sim.h"
#include "core/rollout.h"
#include "geo/trajectory.h"

namespace tamp::core {

std::string_view AssignMethodName(AssignMethod method) {
  switch (method) {
    case AssignMethod::kUpperBound:
      return "UB";
    case AssignMethod::kLowerBound:
      return "LB";
    case AssignMethod::kKm:
      return "KM";
    case AssignMethod::kPpi:
      return "PPI";
    case AssignMethod::kGgpso:
      return "GGPSO";
  }
  return "?";
}

const std::vector<AssignMethod>& AllAssignMethods() {
  static const std::vector<AssignMethod> kAll = {
      AssignMethod::kUpperBound, AssignMethod::kLowerBound, AssignMethod::kKm,
      AssignMethod::kPpi, AssignMethod::kGgpso};
  return kAll;
}

StatusOr<AssignMethod> ParseAssignMethod(std::string_view name) {
  std::string upper(name);
  for (char& c : upper) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  for (AssignMethod method : AllAssignMethods()) {
    if (upper == AssignMethodName(method)) return method;
  }
  std::string accepted;
  for (AssignMethod method : AllAssignMethods()) {
    if (!accepted.empty()) accepted += ", ";
    accepted += AssignMethodName(method);
  }
  return Status::InvalidArgument("unknown assignment method '" +
                                 std::string(name) + "' (accepted: " +
                                 accepted + ")");
}

BatchAssignStep::BatchAssignStep(const data::Workload& workload,
                                 const nn::EncoderDecoder& model,
                                 const SimulatorConfig& config)
    : workload_(workload), config_(config), packed_model_(model.config()) {
  // The observation window length matches the training seq_in: infer it
  // from the first learning task if available.
  if (!workload_.learning_tasks.empty() &&
      !workload_.learning_tasks.front().support.empty()) {
    observe_steps_ = static_cast<int>(
        workload_.learning_tasks.front().support.front().input.size());
  } else if (!workload_.learning_tasks.empty() &&
             !workload_.learning_tasks.front().eval.empty()) {
    observe_steps_ = static_cast<int>(
        workload_.learning_tasks.front().eval.front().input.size());
  }
}

namespace {

/// Whether `method` assigns on forecast routines (UB and LB do not).
bool Forecasts(AssignMethod method) {
  return method == AssignMethod::kKm || method == AssignMethod::kPpi ||
         method == AssignMethod::kGgpso;
}

}  // namespace

void BatchAssignStep::PackPredictors(
    AssignMethod method, const std::vector<WorkerPredictor>& predictors) {
  worker_packs_.resize(predictors.size());
  for (size_t w = 0; w < predictors.size(); ++w) {
    if (Forecasts(method)) {
      TAMP_CHECK(predictors[w].params != nullptr);
      packed_model_.Pack(*predictors[w].params, &worker_packs_[w]);
    } else {
      worker_packs_[w].data.clear();
    }
  }
}

BatchAssignStep::Outcome BatchAssignStep::Step(
    AssignMethod method, const std::vector<WorkerPredictor>& predictors,
    double now, const std::deque<assign::SpatialTask>& pool,
    const std::vector<int>& available) {
  // Per-batch visibility (DESIGN.md §4e): batch counts, pool/candidate
  // depths, and the forecast vs assignment split of each batch's time.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& batches_counter = registry.GetCounter("sim.batches");
  static obs::Counter& assignments_counter =
      registry.GetCounter("sim.assignments");
  static obs::Counter& accepted_counter = registry.GetCounter("sim.accepted");
  static obs::Histogram& pool_depth_hist =
      registry.GetHistogram("sim.pool_depth", obs::CountEdges());
  static obs::Histogram& available_hist =
      registry.GetHistogram("sim.available_workers", obs::CountEdges());
  static obs::Histogram& forecast_hist =
      registry.GetHistogram("sim.forecast_s", obs::DurationEdgesSeconds());
  static obs::Histogram& assign_hist =
      registry.GetHistogram("sim.assign_s", obs::DurationEdgesSeconds());
  static obs::Counter& nonfinite_counter =
      registry.GetCounter("sim.nonfinite_forecasts");

  TAMP_DCHECK(!pool.empty());
  TAMP_DCHECK(!available.empty());
  const auto& workers = workload_.workers;

  obs::TraceSpan batch_span("sim.batch");
  batches_counter.Increment();
  pool_depth_hist.Record(static_cast<double>(pool.size()));
  available_hist.Record(static_cast<double>(available.size()));

  // Build the batch views. The fan-out only collects each worker's recent
  // observations; ONE fleet-wide SoA rollout below then forecasts them all.
  // Every write is slot-indexed, so the batch order (and thus the
  // assignment input) is identical to the serial loop.
  std::vector<assign::SpatialTask> batch_tasks(pool.begin(), pool.end());
  std::vector<assign::CandidateWorker> batch_workers(available.size());
  std::vector<geo::Trajectory> real_futures(available.size());
  double horizon_min =
      config_.prediction_horizon_steps * config_.sample_period_min;
  const bool predicts = Forecasts(method);
  if (predicts) {
    TAMP_CHECK(worker_packs_.size() == predictors.size());
    forecast_packs_.resize(available.size());
    forecast_recents_.resize(available.size());
  }
  std::optional<obs::TraceSpan> views_span(std::in_place, "sim.views");
  ParallelFor(available.size(), [&](size_t a) {
    const size_t wi = static_cast<size_t>(available[a]);
    const data::WorkerRecord& record = workers[wi];
    assign::CandidateWorker cw;
    cw.id = record.id;
    cw.current_location = record.test.PositionAt(now);
    cw.detour_budget_km = record.detour_budget_km;
    cw.speed_kmpm = record.speed_kmpm;
    cw.matching_rate = predictors[wi].matching_rate;
    if (predicts) {
      // Recent observed positions (platform-visible location reports),
      // in the persistent per-slot buffer.
      std::vector<geo::Point>& recent = forecast_recents_[a];
      recent.clear();
      for (int s = observe_steps_ - 1; s >= 0; --s) {
        recent.push_back(
            record.test.PositionAt(now - s * config_.sample_period_min));
      }
      forecast_packs_[a] = &worker_packs_[wi];
    }
    batch_workers[a] = std::move(cw);
    // The oracle's and the acceptance test's view of reality.
    real_futures[a] = record.test.Slice(now, now + horizon_min);
  });
  views_span.reset();
  if (predicts) {
    // The fleet-level forecast call: one worker-major rollout over the
    // run's packed predictors, reusing the rollout scratch across batches.
    Stopwatch forecast_watch;
    obs::TraceSpan forecast_span("sim.forecast");
    RolloutPredictBatch(packed_model_, forecast_packs_, forecast_recents_,
                        workload_.grid, config_.prediction_horizon_steps, now,
                        config_.sample_period_min, forecast_scratch_,
                        &forecast_out_);
    for (size_t a = 0; a < available.size(); ++a) {
      // A diverged predictor forecasts non-finite points. Its worker falls
      // back to the LB view: no predicted routine, so only its current
      // location feeds the stage-3 distance test.
      std::vector<geo::TimedPoint>& predicted = forecast_out_[a];
      if (!std::all_of(predicted.begin(), predicted.end(),
                       [](const geo::TimedPoint& p) {
                         return std::isfinite(p.loc.x) &&
                                std::isfinite(p.loc.y);
                       })) {
        predicted.clear();
        nonfinite_counter.Increment();
      }
      batch_workers[a].predicted = std::move(predicted);
    }
    forecast_hist.Record(forecast_watch.ElapsedSeconds());
  }

  // Run the assignment algorithm (timed: this is the reported runtime).
  Stopwatch watch;
  std::optional<obs::TraceSpan> assign_span(std::in_place, "sim.assign");
  assign::AssignmentPlan plan;
  switch (method) {
    case AssignMethod::kUpperBound:
      plan = assign::UpperBoundAssign(batch_tasks, batch_workers, real_futures,
                                      now);
      break;
    case AssignMethod::kLowerBound:
      plan = assign::LowerBoundAssign(batch_tasks, batch_workers, now);
      break;
    case AssignMethod::kKm:
      plan = assign::KmAssign(batch_tasks, batch_workers, now,
                              config_.match_radius_km);
      break;
    case AssignMethod::kPpi: {
      assign::PpiConfig ppi = config_.ppi;
      ppi.match_radius_km = config_.match_radius_km;
      plan = assign::PpiAssign(batch_tasks, batch_workers, now, ppi);
      break;
    }
    case AssignMethod::kGgpso: {
      assign::GgpsoConfig ggpso = config_.ggpso;
      ggpso.match_radius_km = config_.match_radius_km;
      plan = assign::GgpsoAssign(batch_tasks, batch_workers, now, ggpso);
      break;
    }
  }
  assign_span.reset();

  Outcome outcome;
  outcome.assignments = static_cast<int>(plan.pairs.size());
  outcome.assign_seconds = watch.ElapsedSeconds();
  assign_hist.Record(outcome.assign_seconds);

  // Worker decisions against reality (step 3 of the framework): accept
  // iff the real detour fits w.d and the deadline is met.
  for (const assign::AssignmentPair& pair : plan.pairs) {
    const assign::SpatialTask& task =
        batch_tasks[static_cast<size_t>(pair.task_index)];
    int w = available[static_cast<size_t>(pair.worker_index)];
    const data::WorkerRecord& record = workers[static_cast<size_t>(w)];
    auto visit = geo::PlanTaskVisit(
        real_futures[static_cast<size_t>(pair.worker_index)], task.location,
        record.speed_kmpm, task.deadline_min);
    bool accepts =
        visit.has_value() && visit->detour_km <= record.detour_budget_km;
    if (!accepts) {
      // Rejected: the task stays pooled and carries over to the next
      // batch (Section IV-B). With remember_declines the platform also
      // avoids re-proposing this exact pair.
      if (config_.remember_declines) {
        outcome.declined.emplace_back(task.id, record.id);
      }
      continue;
    }
    Accepted accepted;
    accepted.worker = w;
    accepted.task_id = task.id;
    accepted.detour_km = visit->detour_km;
    accepted.busy_until_min =
        config_.busy_until_arrival
            ? visit->arrival_time_min + config_.service_time_min
            : now + config_.service_time_min;
    outcome.accepted.push_back(accepted);
  }
  assignments_counter.Increment(static_cast<int64_t>(plan.pairs.size()));
  accepted_counter.Increment(static_cast<int64_t>(outcome.accepted.size()));
  return outcome;
}

BatchSimulator::BatchSimulator(const data::Workload& workload,
                               const nn::EncoderDecoder& model,
                               const SimulatorConfig& config)
    : workload_(workload), config_(config), step_(workload_, model, config_) {}

SimMetrics BatchSimulator::Run(
    AssignMethod method, const std::vector<WorkerPredictor>& predictors) {
  // The thin-client contract (DESIGN.md §4j): the batch cadence lives
  // HERE — one assignment-trigger event per batch window — and the event
  // core handles everything else (arrivals, expiries, sessions,
  // completions), including the run's one sim.run span.
  EventSimulator sim(workload_, config_, step_);
  if (!workload_.task_stream.empty()) {
    const double horizon_start =
        workload_.task_stream.front().release_time_min;
    double horizon_end = 0.0;
    for (const auto& task : workload_.task_stream) {
      horizon_end = std::max(horizon_end, task.deadline_min);
    }
    for (double now = horizon_start; now <= horizon_end;
         now += config_.batch_window_min) {
      sim.ScheduleAssignTrigger(now);
    }
  }
  return sim.Run(method, predictors);
}

}  // namespace tamp::core
