#include "core/event_sim.h"

#include <algorithm>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/rng.h"

namespace tamp::core {

namespace {

/// Seed for the per-(worker, task) dropout draw: a pure function of the
/// pair, so the outcome is independent of event order and thread count.
/// The multipliers are the splitmix64 constants; Rng re-mixes the
/// result anyway, this only has to separate nearby (worker, task) pairs.
uint64_t DropoutDrawSeed(uint64_t model_seed, int worker_id, int task_id) {
  constexpr uint64_t kWorkerMul = 0x9E3779B97F4A7C15ULL;
  constexpr uint64_t kTaskMul = 0xBF58476D1CE4E5B9ULL;
  uint64_t mixed = model_seed;
  mixed ^= static_cast<uint64_t>(static_cast<int64_t>(worker_id)) * kWorkerMul;
  mixed ^= static_cast<uint64_t>(static_cast<int64_t>(task_id)) * kTaskMul;
  return mixed;
}

}  // namespace

EventSimulator::EventSimulator(const data::Workload& workload,
                               const SimulatorConfig& config,
                               BatchAssignStep& step)
    : workload_(workload), config_(config), step_(step) {
  online_.assign(workload_.workers.size(), 0);
  busy_.assign(workload_.workers.size(), 0);
}

void EventSimulator::ScheduleAssignTrigger(double time_min) {
  queue_.Push({time_min, EventKind::kAssignTrigger, next_trigger_id_});
  ++next_trigger_id_;
}

void EventSimulator::SeedWorkloadEvents() {
  // Every task contributes its arrival and its deadline expiry, keyed by
  // stream index (the stream is sorted by release time, so same-instant
  // arrivals pool in stream order).
  for (size_t i = 0; i < workload_.task_stream.size(); ++i) {
    const assign::SpatialTask& task = workload_.task_stream[i];
    queue_.Push({task.release_time_min, EventKind::kTaskArrival,
                 static_cast<int64_t>(i)});
    queue_.Push({task.deadline_min, EventKind::kTaskExpiry,
                 static_cast<int64_t>(i)});
  }
  // One login/logout pair per availability session, clipped to the
  // worker's test horizon (outside it the simulator has no ground-truth
  // position, so the batch predicate excludes the worker there too).
  for (size_t w = 0; w < workload_.workers.size(); ++w) {
    const data::WorkerRecord& record = workload_.workers[w];
    if (record.test.empty()) continue;
    const double horizon_lo = record.test.start_time();
    const double horizon_hi = record.test.end_time();
    // Mirror WorkerRecord::AvailableAt's fallback for hand-built records.
    std::vector<data::AvailabilitySession> envelope;
    const std::vector<data::AvailabilitySession>& sessions =
        record.availability.empty()
            ? (envelope = {{record.online_start_min, record.online_end_min}})
            : record.availability;
    for (const data::AvailabilitySession& session : sessions) {
      const double login = std::max(session.start_min, horizon_lo);
      const double logout = std::min(session.end_min, horizon_hi);
      if (login > logout) continue;
      const int64_t session_id =
          static_cast<int64_t>(session_worker_.size());
      session_worker_.push_back(static_cast<int>(w));
      queue_.Push({login, EventKind::kWorkerLogin, session_id});
      queue_.Push({logout, EventKind::kWorkerLogout, session_id});
    }
  }
}

size_t EventSimulator::StreamIndexOf(int task_id) const {
  for (size_t i = 0; i < workload_.task_stream.size(); ++i) {
    if (workload_.task_stream[i].id == task_id) return i;
  }
  TAMP_CHECK_MSG(false, "task id not in the workload stream");
  return 0;
}

void EventSimulator::ErasePooledTask(int task_id) {
  for (auto it = pool_.begin(); it != pool_.end(); ++it) {
    if (it->id == task_id) {
      pool_.erase(it);
      return;
    }
  }
}

void EventSimulator::HandleAssignTrigger(
    double now, AssignMethod method,
    const std::vector<WorkerPredictor>& predictors, SimMetrics* metrics) {
  static obs::Counter& dropouts_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.dropouts");
  static obs::Counter& skips_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.batch_skips");

  // Skip conditions: no pending tasks, or nobody online and free.
  // (Busy/online flags were already settled by the same-instant
  // completion/login events, which sort before the trigger.) A skipped
  // trigger still counts, so every trigger lands on exactly one of
  // sim.batches and sim.batch_skips.
  if (pool_.empty()) {
    skips_counter.Increment();
    return;
  }
  available_.clear();
  for (size_t w = 0; w < workload_.workers.size(); ++w) {
    if (!online_[w] || busy_[w]) continue;
    available_.push_back(static_cast<int>(w));
  }
  if (available_.empty()) {
    skips_counter.Increment();
    return;
  }

  BatchAssignStep::Outcome outcome =
      step_.Step(method, predictors, now, pool_, available_);
  metrics->assignments += outcome.assignments;
  metrics->assign_seconds += outcome.assign_seconds;
  for (const auto& [task_id, worker_id] : outcome.declined) {
    for (auto& pooled : pool_) {
      if (pooled.id == task_id) {
        pooled.declined_worker_ids.push_back(worker_id);
        break;
      }
    }
  }
  for (const BatchAssignStep::Accepted& accepted : outcome.accepted) {
    ++metrics->accepted;
    const data::WorkerRecord& record =
        workload_.workers[static_cast<size_t>(accepted.worker)];
    // The dropout draw (churn workloads): keyed by (model seed, worker,
    // task), decided at acceptance so exactly one completion event is ever
    // scheduled per acceptance — at the real service end.
    double service_end = accepted.busy_until_min;
    bool dropped = false;
    if (workload_.dropout.prob > 0.0) {
      Rng draw(DropoutDrawSeed(workload_.dropout.seed, record.id,
                               accepted.task_id));
      dropped = draw.Bernoulli(workload_.dropout.prob);
      if (dropped) {
        // The worker aborts partway through the service interval.
        service_end =
            now + draw.Uniform01() * (accepted.busy_until_min - now);
      }
    }
    busy_[static_cast<size_t>(accepted.worker)] = 1;
    queue_.Push({service_end, EventKind::kWorkerCompletion,
                 static_cast<int64_t>(accepted.worker)});
    ErasePooledTask(accepted.task_id);
    if (dropped) {
      ++metrics->dropouts;
      ++stats_.dropouts;
      dropouts_counter.Increment();
      // The aborted task returns to the pool (fresh arrival) if it can
      // still meet its deadline; otherwise it is lost.
      const size_t stream_index = StreamIndexOf(accepted.task_id);
      if (service_end <
          workload_.task_stream[stream_index].deadline_min) {
        queue_.Push({service_end, EventKind::kTaskArrival,
                     static_cast<int64_t>(stream_index)});
      }
    } else {
      ++metrics->completed;
      metrics->total_cost_km += accepted.detour_km;
    }
  }
}

SimMetrics EventSimulator::Run(
    AssignMethod method, const std::vector<WorkerPredictor>& predictors) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& events_counter = registry.GetCounter("sim.events");
  static obs::Counter& arrival_counter =
      registry.GetCounter("sim.ev_task_arrival");
  static obs::Counter& expiry_counter =
      registry.GetCounter("sim.ev_task_expiry");
  static obs::Counter& login_counter =
      registry.GetCounter("sim.ev_worker_login");
  static obs::Counter& completion_counter =
      registry.GetCounter("sim.ev_worker_completion");
  static obs::Counter& trigger_counter =
      registry.GetCounter("sim.ev_assign_trigger");
  static obs::Counter& logout_counter =
      registry.GetCounter("sim.ev_worker_logout");

  obs::TraceSpan run_span("sim.run");
  TAMP_CHECK(predictors.size() == workload_.workers.size());
  SimMetrics metrics;
  metrics.total_tasks = static_cast<int>(workload_.task_stream.size());
  if (workload_.workers.empty() || workload_.task_stream.empty()) {
    return metrics;
  }

  // Predictors are immutable for the run: pack them once, here.
  step_.PackPredictors(method, predictors);
  SeedWorkloadEvents();
  while (!queue_.empty()) {
    const SimEvent event = queue_.Pop();
    if (trace_ != nullptr) trace_->push_back(event);
    ++stats_.events;
    events_counter.Increment();
    switch (event.kind) {
      case EventKind::kTaskArrival:
        ++stats_.task_arrivals;
        arrival_counter.Increment();
        pool_.push_back(
            workload_.task_stream[static_cast<size_t>(event.id)]);
        break;
      case EventKind::kTaskExpiry:
        ++stats_.task_expiries;
        expiry_counter.Increment();
        ErasePooledTask(
            workload_.task_stream[static_cast<size_t>(event.id)].id);
        break;
      case EventKind::kWorkerLogin:
        ++stats_.worker_logins;
        login_counter.Increment();
        online_[static_cast<size_t>(
            session_worker_[static_cast<size_t>(event.id)])] = 1;
        break;
      case EventKind::kWorkerCompletion:
        ++stats_.worker_completions;
        completion_counter.Increment();
        busy_[static_cast<size_t>(event.id)] = 0;
        break;
      case EventKind::kAssignTrigger:
        ++stats_.assign_triggers;
        trigger_counter.Increment();
        HandleAssignTrigger(event.time_min, method, predictors, &metrics);
        break;
      case EventKind::kWorkerLogout:
        ++stats_.worker_logouts;
        logout_counter.Increment();
        online_[static_cast<size_t>(
            session_worker_[static_cast<size_t>(event.id)])] = 0;
        break;
    }
  }
  return metrics;
}

}  // namespace tamp::core
