#pragma once

#include <cstddef>
#include <deque>
#include <string_view>
#include <vector>

#include "assign/ggpso.h"
#include "assign/ppi.h"
#include "assign/types.h"
#include "common/status.h"
#include "core/rollout.h"
#include "data/workload.h"
#include "nn/packed_seq2seq.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {

/// The compared assignment strategies of Section IV-A.
enum class AssignMethod {
  kUpperBound,  // Oracle on real trajectories (rejection rate 0).
  kLowerBound,  // Current location only.
  kKm,          // Plain KM on predicted trajectories.
  kPpi,         // Algorithm 4.
  kGgpso,       // Genetic/PSO baseline [11].
};

/// Canonical display name ("UB", "LB", "KM", "PPI", "GGPSO"). The returned
/// view points at static storage and round-trips through
/// ParseAssignMethod.
std::string_view AssignMethodName(AssignMethod method);

/// Inverse of AssignMethodName (case-insensitive); InvalidArgument for
/// anything else, listing the accepted names.
StatusOr<AssignMethod> ParseAssignMethod(std::string_view name);

/// Every AssignMethod, in the fixed presentation order of the paper's
/// figures (UB, LB, KM, PPI, GGPSO).
const std::vector<AssignMethod>& AllAssignMethods();

/// Batch-based online-stage settings (Table III: 2-minute windows, 10-min
/// time units).
struct SimulatorConfig {
  double batch_window_min = 2.0;
  double sample_period_min = 10.0;
  /// How many future positions the platform forecasts per worker per batch
  /// (the predicted routine w.r-hat the assigners see).
  int prediction_horizon_steps = 5;
  /// Matching-rate radius a (shared by Def. 7 evaluation and Theorem 2).
  double match_radius_km = 1.0;
  /// Brief hand-over pause after completing a task before the worker can
  /// take another assignment.
  double service_time_min = 2.0;
  /// When true a worker stays committed (unassignable) until they reach
  /// the accepted task; when false only the service pause applies (the
  /// check-in-style tasks of the paper's running example are performed en
  /// route and barely interrupt the routine -- the default, matching the
  /// paper's batch-replay evaluation).
  bool busy_until_arrival = false;
  /// When true the platform records declined (task, worker) pairs and
  /// never re-proposes them (an extension beyond the paper, exercised by
  /// the ablation bench); when false — the paper's behaviour — a rejected
  /// task simply returns to the pool and may be re-proposed to anyone.
  bool remember_declines = false;
  assign::PpiConfig ppi;
  assign::GgpsoConfig ggpso;
};

/// Aggregate outcome of one simulated horizon (the Fig. 6-11 metrics).
struct SimMetrics {
  int total_tasks = 0;        // Tasks released over the horizon.
  int assignments = 0;        // |M| accumulated over batches.
  int accepted = 0;           // |M'|: assignments workers accepted.
  int completed = 0;          // Tasks completed: `accepted` minus
                              // `dropouts` (dropout-free workloads have
                              // accepted == completed).
  int dropouts = 0;           // Accepted tasks aborted mid-service (churn
                              // scenarios).
  double total_cost_km = 0.0; // Sum of real detours of completed tasks.
  double assign_seconds = 0.0;// Pure assignment-algorithm running time.

  double CompletionRatio() const {
    return total_tasks == 0 ? 0.0
                            : static_cast<double>(completed) / total_tasks;
  }
  double RejectionRatio() const {
    return assignments == 0
               ? 0.0
               : static_cast<double>(assignments - accepted) / assignments;
  }
  double AvgCostKm() const {
    return completed == 0 ? 0.0 : total_cost_km / completed;
  }
};

/// Per-worker prediction inputs the simulator needs: the trained model
/// parameters and the offline-estimated matching rate.
struct WorkerPredictor {
  const std::vector<double>* params = nullptr;  // Null for UB/LB methods.
  double matching_rate = 0.0;
};

/// The per-batch machinery of one assignment trigger: given the pending
/// pool and the available worker indices at one instant, forecast the
/// fleet's routines, run the chosen assignment algorithm, and simulate the
/// workers' accept/reject decisions against their real trajectories.
/// Owning it once per run keeps the fleet forecast scratch warm across
/// batches.
class BatchAssignStep {
 public:
  BatchAssignStep(const data::Workload& workload,
                  const nn::EncoderDecoder& model,
                  const SimulatorConfig& config);

  /// One accepted assignment: the workload worker index, the task, the
  /// real detour, and when the worker's service ends.
  struct Accepted {
    int worker = -1;           // Index into workload.workers.
    int task_id = -1;
    double detour_km = 0.0;
    double busy_until_min = 0.0;
  };

  /// Everything one batch decided, in plan order. The caller applies it to
  /// its own state (metrics, busy/pool bookkeeping, decline memory).
  struct Outcome {
    int assignments = 0;       // |M| this batch proposed.
    std::vector<Accepted> accepted;
    /// (task_id, worker_id) pairs the workers declined, recorded only
    /// when config.remember_declines.
    std::vector<std::pair<int, int>> declined;
    double assign_seconds = 0.0;  // Assignment-algorithm time this batch.
  };

  /// Packs every worker's predictor for the forecasts of one run (k-major
  /// gate weights, nn::PackedSeq2Seq), keyed by worker index. A run's
  /// predictors are immutable, so EventSimulator::Run calls this once
  /// before its first trigger; every call repacks, so a later run never
  /// sees an earlier run's weights, even behind the same pointers.
  /// Prediction-free methods (UB, LB) pack nothing.
  void PackPredictors(AssignMethod method,
                      const std::vector<WorkerPredictor>& predictors);

  /// Runs one batch at `now` over the pending pool and the available
  /// workload-worker indices (ascending), forecasting on the packs of the
  /// last PackPredictors call. Also records the per-batch observability
  /// (batch count, pool/fleet depths, forecast/assign timings).
  Outcome Step(AssignMethod method,
               const std::vector<WorkerPredictor>& predictors, double now,
               const std::deque<assign::SpatialTask>& pool,
               const std::vector<int>& available);

 private:
  const data::Workload& workload_;
  const SimulatorConfig& config_;
  /// Observation window length (matches the training seq_in).
  int observe_steps_ = 5;
  /// Worker-major forecast engine, the run's packed predictors (one per
  /// workload worker) and the cross-batch rollout scratch.
  nn::PackedSeq2Seq packed_model_;
  std::vector<nn::PackedSeq2SeqParams> worker_packs_;
  FleetForecastScratch forecast_scratch_;
  std::vector<const nn::PackedSeq2SeqParams*> forecast_packs_;
  std::vector<std::vector<geo::Point>> forecast_recents_;
  std::vector<std::vector<geo::TimedPoint>> forecast_out_;
};

/// The online stage: replays the test-horizon task stream with assignment
/// fired every 2 minutes. Each batch the platform forecasts available
/// workers' routines, runs the chosen assignment algorithm, and every
/// assigned worker then accepts or rejects against their *real* trajectory
/// (detour <= w.d and arrival before the deadline). Rejected tasks return
/// to the pool until they expire; accepted workers are busy until they
/// reach the task.
///
/// Run() is a thin client of the event-queue core (DESIGN.md §4j): it
/// enqueues one assignment-trigger event per batch window and lets the
/// EventSimulator drain the queue.
class BatchSimulator {
 public:
  BatchSimulator(const data::Workload& workload,
                 const nn::EncoderDecoder& model,
                 const SimulatorConfig& config);

  /// Runs the full horizon with one method. `predictors` is index-aligned
  /// with the workload's workers; prediction-free methods (UB, LB) ignore
  /// the params but UB still uses no predictor and LB only locations.
  SimMetrics Run(AssignMethod method,
                 const std::vector<WorkerPredictor>& predictors);

 private:
  const data::Workload& workload_;
  SimulatorConfig config_;
  BatchAssignStep step_;
};

}  // namespace tamp::core
