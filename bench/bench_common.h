#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/run_options.h"
#include "data/workload.h"
#include "meta/trainer.h"

namespace tamp::bench {

/// Machine-readable bench output. A bench main opens one JsonReport for
/// its target; the Run* harness functions below record every table cell
/// (metric name -> value) and per-stage wall-clock into it, and the
/// destructor writes `BENCH_<target>.json` (into the configured directory,
/// TAMP_BENCH_JSON_DIR, or the working directory) next to the
/// human-readable table/CSV on stdout. The file also records the thread
/// count the run used, a snapshot of the observability registry
/// (DESIGN.md §4e), so perf trajectories (tools/bench_compare) compare
/// like with like, and a "manifest" of what produced it: git_rev,
/// build_type and compiler as set at configure time ("unknown" outside a
/// git checkout or when the build does not inject them) and threads.
/// bench_compare ignores the manifest.
class JsonReport {
 public:
  /// `json_dir` overrides TAMP_BENCH_JSON_DIR when non-empty.
  explicit JsonReport(std::string target, std::string json_dir = "");
  ~JsonReport();  // Writes the JSON file; never throws (best effort).

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Records one table cell, e.g. ("GTMC.dsl.rmse_km", 2.0107).
  void AddMetric(const std::string& key, double value);

  /// Records one stage wall-clock in seconds, e.g. ("total_s", 51.6).
  void AddStage(const std::string& stage, double seconds);

  /// Whether the written JSON embeds the observability-registry snapshot
  /// (default true). Micro-benchmark targets turn this off: their obs
  /// counters scale with google-benchmark's auto-chosen iteration counts,
  /// which would make the "deterministic" section machine-dependent.
  void IncludeObs(bool include) { include_obs_ = include; }

  /// The report opened by the currently running bench target, or nullptr
  /// (harness functions are no-op recorders without an open report).
  static JsonReport* active();

 private:
  std::string target_;
  std::string json_dir_;
  bool include_obs_ = true;
  std::map<std::string, double> metrics_;  // Ordered: deterministic output.
  std::map<std::string, double> stages_;
};

/// Scaled-down experiment sizes (the paper's testbed trains for thousands
/// of seconds on a GPU; this harness runs the full sweep on one CPU core).
/// The reproduction target is the *relative* orderings, not absolute
/// numbers; see EXPERIMENTS.md.
struct BenchScale {
  int num_workers = 24;
  int num_tasks = 700;
  int num_train_days = 3;
  int table_fine_tune_steps = 20;  // Prediction-table experiments: light,
                                   // so meta-init quality dominates.
  int sim_fine_tune_steps = 60;    // Assignment experiments.
  int meta_iterations = 25;
};

/// The calibrated base workload for one of the two dataset pairs.
data::WorkloadConfig BaseWorkloadConfig(data::WorkloadKind kind,
                                        const BenchScale& scale);

/// The calibrated base pipeline (model size, meta hyper-parameters,
/// simulator settings).
core::PipelineConfig BasePipelineConfig(const BenchScale& scale);

// ---------------------------------------------------------------------
// Bench target description + shared main.
// ---------------------------------------------------------------------

/// Which x-axis an assignment sweep varies.
enum class SweepVar {
  kDetour,     // Worker detour budget d (km). Fig. 6 / Fig. 9.
  kNumTasks,   // Number of spatial tasks.     Fig. 7 / Fig. 10.
  kValidTime,  // Valid-time lower bound (time units; upper = lo + 1).
               //                              Fig. 8 / Fig. 11.
};

/// Which experiment family a bench target reproduces.
enum class Experiment {
  kClusterAblation,  // Tables IV/VI: clustering algorithm x factor subset.
  kSeqLenSweep,      // Tables V/VII: seq_in / seq_out over four algorithms.
  kAssignmentSweep,  // Figs. 6-11: assignment methods over a sweep axis.
};

/// A declarative description of one bench target. Each bench main builds
/// one of these and delegates to BenchMain.
struct BenchSpec {
  const char* target;  // BENCH_<target>.json stem.
  const char* title;   // Paper-style table/figure caption.
  Experiment experiment;
  data::WorkloadKind dataset;
  SweepVar sweep_var = SweepVar::kDetour;  // kAssignmentSweep only.
  std::vector<double> sweep_values;        // kAssignmentSweep only.
};

/// The calibrated core::RunOptions for a bench target: the dataset pair
/// plus BasePipelineConfig's simulator block. Command-line flags
/// (core::ParseRunFlags) override individual fields.
core::RunOptions DefaultRunOptions(const BenchSpec& spec);

/// Shared bench entry point: parse --flags over DefaultRunOptions(spec),
/// validate, apply (threads/tracing), open the JsonReport, dispatch the
/// experiment, and write the trace/metrics artifacts. Returns the process
/// exit code.
int BenchMain(const BenchSpec& spec, int argc, char** argv);

// ---------------------------------------------------------------------
// Prediction-side experiments (Tables IV-VII).
// ---------------------------------------------------------------------

/// One row of a prediction table.
struct PredRow {
  double rmse = 0.0;  // km
  double mae = 0.0;   // km
  double mr = 0.0;    // Matching rate at the configured radius a.
  double tt = 0.0;    // Meta-training wall-clock seconds.
};

/// Trains the given meta-learning algorithm on the workload (MSE loss, as
/// the paper's prediction tables prescribe) and evaluates on held-out data.
/// `factors`/`use_game` configure the GTMC ablation axes; they are ignored
/// by MAML/CTML. `options.sim` seeds the pipeline's simulator block (the
/// table experiments then pin match_radius_km to the Def. 7 table radius).
PredRow RunPredictionExperiment(const data::WorkloadConfig& workload_config,
                                meta::MetaAlgorithm algorithm,
                                const std::vector<meta::Factor>& factors,
                                bool use_game, const BenchScale& scale,
                                const core::RunOptions& options);

/// Table IV/VI: the clustering-algorithm x factor-subset ablation.
/// Prints the table and its CSV.
void RunClusterAblation(const BenchSpec& spec,
                        const core::RunOptions& options);

/// Table V/VII: the seq_in / seq_out sweep over the four algorithms.
void RunSeqLenSweep(const BenchSpec& spec, const core::RunOptions& options);

// ---------------------------------------------------------------------
// Assignment-side experiments (Figs. 6-11).
// ---------------------------------------------------------------------

/// Runs the full assignment comparison (UB, LB, KM-loss, KM, PPI-loss,
/// PPI, GGPSO, filtered by options.methods) over spec.sweep_values,
/// printing the four metric panels (completion ratio, rejection ratio,
/// worker cost, running time) the paper's figures plot.
void RunAssignmentSweep(const BenchSpec& spec,
                        const core::RunOptions& options);

}  // namespace tamp::bench
