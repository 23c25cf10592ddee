#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "data/tasks.h"

namespace tamp::bench {
namespace {

JsonReport* g_active_report = nullptr;

/// JSON string escaping for the restricted key space we emit (metric names
/// built from algorithm/method labels and numbers).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJsonSection(std::ofstream& os, const char* name,
                      const std::map<std::string, double>& values,
                      bool trailing_comma) {
  os << "  \"" << name << "\": {";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) os << ",";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    os << "\n    \"" << JsonEscape(key) << "\": " << buf;
  }
  if (!values.empty()) os << "\n  ";
  os << "}" << (trailing_comma ? "," : "") << "\n";
}

// What produced a report, injected at configure time (bench/CMakeLists.txt).
// A build that sets none of them, such as perfbench's, records "unknown".
#ifndef TAMP_GIT_REV
#define TAMP_GIT_REV "unknown"
#endif
#ifndef TAMP_BUILD_TYPE
#define TAMP_BUILD_TYPE "unknown"
#endif
#ifndef TAMP_COMPILER
#define TAMP_COMPILER "unknown"
#endif

/// The "manifest" block, with perfbench's manifest field names.
void WriteManifest(std::ofstream& os) {
  os << "  \"manifest\": {\n";
  os << "    \"git_rev\": \"" << JsonEscape(TAMP_GIT_REV) << "\",\n";
  os << "    \"build_type\": \"" << JsonEscape(TAMP_BUILD_TYPE) << "\",\n";
  os << "    \"compiler\": \"" << JsonEscape(TAMP_COMPILER) << "\",\n";
  os << "    \"threads\": " << ParallelThreadCount() << "\n";
  os << "  },\n";
}

/// Assignment methods in presentation order, with the loss variant used
/// to train the models each consumes (per Section IV-A: KM/PPI use the
/// task-assignment-oriented loss; the *-loss variants use plain MSE, as
/// does the external GGPSO baseline).
struct MethodSpec {
  const char* name;
  core::AssignMethod method;
  bool use_ta_loss_models;
};

constexpr MethodSpec kMethods[] = {
    {"UB", core::AssignMethod::kUpperBound, false},
    {"LB", core::AssignMethod::kLowerBound, false},
    {"KM-loss", core::AssignMethod::kKm, false},
    {"KM", core::AssignMethod::kKm, true},
    {"PPI-loss", core::AssignMethod::kPpi, false},
    {"PPI", core::AssignMethod::kPpi, true},
    {"GGPSO", core::AssignMethod::kGgpso, false},
};

std::string FactorTicks(const std::vector<meta::Factor>& factors) {
  auto has = [&](meta::Factor f) {
    for (meta::Factor g : factors) {
      if (g == f) return true;
    }
    return false;
  };
  std::string out;
  out += has(meta::Factor::kDistribution) ? "d " : "- ";
  out += has(meta::Factor::kSpatial) ? "s " : "- ";
  out += has(meta::Factor::kLearningPath) ? "l" : "-";
  return out;
}

/// Compact factor-subset slug for metric keys: {Sim_d, Sim_l} -> "dl".
std::string FactorSlug(const std::vector<meta::Factor>& factors) {
  std::string slug;
  auto has = [&](meta::Factor f) {
    for (meta::Factor g : factors) {
      if (g == f) return true;
    }
    return false;
  };
  if (has(meta::Factor::kDistribution)) slug += 'd';
  if (has(meta::Factor::kSpatial)) slug += 's';
  if (has(meta::Factor::kLearningPath)) slug += 'l';
  return slug.empty() ? "none" : slug;
}

void RecordPredRow(const std::string& prefix, const PredRow& row) {
  JsonReport* report = JsonReport::active();
  if (report == nullptr) return;
  report->AddMetric(prefix + ".rmse_km", row.rmse);
  report->AddMetric(prefix + ".mae_km", row.mae);
  report->AddMetric(prefix + ".mr", row.mr);
  report->AddMetric(prefix + ".tt_s", row.tt);
}

/// The bench workload for the run: the calibrated base for the dataset,
/// with the caller's scenario (--workload) and seed (--seed) applied.
data::WorkloadConfig RunWorkloadConfig(const core::RunOptions& options,
                                       const BenchScale& scale) {
  data::WorkloadConfig workload =
      BaseWorkloadConfig(options.workload.kind, scale);
  workload.scenario = options.workload.scenario;
  if (options.seed != 0) workload.seed = options.seed;
  return workload;
}

/// The bench pipeline for the run: the calibrated base with the caller's
/// simulator block (threads and sinks are applied by BenchMain).
core::PipelineConfig RunPipelineConfig(const core::RunOptions& options,
                                       const BenchScale& scale) {
  core::PipelineConfig config = BasePipelineConfig(scale);
  config.sim = options.sim;
  return config;
}

}  // namespace

JsonReport::JsonReport(std::string target, std::string json_dir)
    : target_(std::move(target)), json_dir_(std::move(json_dir)) {
  g_active_report = this;
}

JsonReport::~JsonReport() {
  if (g_active_report == this) g_active_report = nullptr;
  std::string dir = json_dir_;
  if (dir.empty()) {
    const char* env = std::getenv("TAMP_BENCH_JSON_DIR");
    if (env != nullptr) dir = env;
  }
  std::string path = dir.empty() ? "BENCH_" + target_ + ".json"
                                 : dir + "/BENCH_" + target_ + ".json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench: could not write " << path << "\n";
    return;
  }
  os << "{\n";
  os << "  \"target\": \"" << JsonEscape(target_) << "\",\n";
  WriteManifest(os);
  os << "  \"threads\": " << ParallelThreadCount() << ",\n";
  WriteJsonSection(os, "stages", stages_, /*trailing_comma=*/true);
  // The observability registry snapshot (DESIGN.md §4e). Keys with an
  // `_s` component are wall-clock-derived and advisory in bench_compare;
  // the rest are deterministic work counts.
  if (include_obs_) {
    WriteJsonSection(os, "obs", obs::MetricsRegistry::Global().Snapshot(),
                     /*trailing_comma=*/true);
  }
  WriteJsonSection(os, "metrics", metrics_, /*trailing_comma=*/false);
  os << "}\n";
  std::cout << "\nJSON: " << path << "\n";
}

void JsonReport::AddMetric(const std::string& key, double value) {
  metrics_[key] = value;
}

void JsonReport::AddStage(const std::string& stage, double seconds) {
  stages_[stage] = seconds;
}

JsonReport* JsonReport::active() { return g_active_report; }

data::WorkloadConfig BaseWorkloadConfig(data::WorkloadKind kind,
                                        const BenchScale& scale) {
  data::WorkloadConfig config;
  config.kind = kind;
  config.num_workers = scale.num_workers;
  config.num_train_days = scale.num_train_days;
  config.num_tasks = scale.num_tasks;
  config.num_historical_tasks = 1500;
  config.detour_budget_km = 4.0;  // Table III default (varied by Fig. 6/9).
  config.seed = kind == data::WorkloadKind::kPortoDidi ? 20250707 : 20250708;
  return config;
}

core::PipelineConfig BasePipelineConfig(const BenchScale& scale) {
  core::PipelineConfig config;
  config.trainer.model.hidden_dim = 16;
  config.trainer.meta.iterations = scale.meta_iterations;
  config.trainer.fine_tune_steps = scale.sim_fine_tune_steps;
  config.trainer.projection_dim = 16;
  config.trainer.tree.game.k = 3;
  config.trainer.tree.thresholds = {0.9, 0.9};
  config.sim.prediction_horizon_steps = 4;
  config.sim.match_radius_km = 0.5;
  config.sim.ggpso.population = 24;
  config.sim.ggpso.generations = 60;
  // Gentle task-density reweighting (Eq. 7): kappa/delta keep the mean
  // weight at 1 while boosting task-dense regions ~2-3x.
  config.ta_loss.kappa = 0.3;
  config.ta_loss.delta = 0.7;
  config.ta_loss.dq_km = 1.5;
  return config;
}

core::RunOptions DefaultRunOptions(const BenchSpec& spec) {
  core::RunOptions options;
  options.workload.kind = spec.dataset;
  BenchScale scale;
  options.sim = BasePipelineConfig(scale).sim;
  return options;
}

int BenchMain(const BenchSpec& spec, int argc, char** argv) {
  core::RunOptions options = DefaultRunOptions(spec);
  Status status = core::ParseRunFlags(argc, argv, &options);
  if (status.code() == StatusCode::kFailedPrecondition) {
    // --help: the message carries the flags text.
    std::cout << spec.target << ": " << spec.title << "\n\nflags:\n"
              << status.message();
    return 0;
  }
  if (status.ok()) status = options.Validate();
  if (!status.ok()) {
    std::cerr << spec.target << ": " << status.ToString() << "\n";
    return 1;
  }
  core::ApplyRunOptions(options);
  {
    JsonReport report(spec.target, options.sinks.bench_json_dir);
    switch (spec.experiment) {
      case Experiment::kClusterAblation:
        RunClusterAblation(spec, options);
        break;
      case Experiment::kSeqLenSweep:
        RunSeqLenSweep(spec, options);
        break;
      case Experiment::kAssignmentSweep:
        RunAssignmentSweep(spec, options);
        break;
    }
  }
  status = core::WriteRunArtifacts(options);
  if (!status.ok()) {
    std::cerr << spec.target << ": " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

PredRow RunPredictionExperiment(const data::WorkloadConfig& workload_config,
                                meta::MetaAlgorithm algorithm,
                                const std::vector<meta::Factor>& factors,
                                bool use_game, const BenchScale& scale,
                                const core::RunOptions& options) {
  data::Workload workload = data::GenerateWorkload(workload_config);

  core::PipelineConfig pipeline_config = RunPipelineConfig(options, scale);
  // The model must emit exactly the workload's seq_out points per sample.
  pipeline_config.trainer.model.seq_out = workload_config.seq_out;
  // Light fine-tuning so the quality of the *meta-initialization* — what
  // the clustering ablation actually varies — dominates the metrics.
  pipeline_config.trainer.fine_tune_steps = scale.table_fine_tune_steps;
  pipeline_config.trainer.factors = factors;
  pipeline_config.use_ta_loss = false;  // Prediction tables use MSE loss.
  // The trainer derives use_game from the algorithm (kGttaml = game,
  // kGttamlGt = plain multi-level clustering), so map the ablation axis
  // onto the algorithm choice.
  pipeline_config.meta_algorithm =
      algorithm == meta::MetaAlgorithm::kGttaml && !use_game
          ? meta::MetaAlgorithm::kGttamlGt
          : algorithm;
  // A wider matching radius for Def. 7 keeps the table MRs out of the
  // small-count noise floor.
  pipeline_config.sim.match_radius_km = 1.0;

  core::TampPipeline pipeline(pipeline_config);
  core::OfflineResult offline = pipeline.TrainOffline(workload);

  PredRow row;
  row.rmse = offline.eval.aggregate.rmse_km;
  row.mae = offline.eval.aggregate.mae_km;
  row.mr = offline.eval.aggregate.matching_rate;
  row.tt = offline.models.train_seconds;
  return row;
}

void RunClusterAblation(const BenchSpec& spec,
                        const core::RunOptions& options) {
  BenchScale scale;
  data::WorkloadConfig workload = RunWorkloadConfig(options, scale);
  Stopwatch total_watch;
  double tt_sum = 0.0;

  const std::vector<std::vector<meta::Factor>> factor_subsets = {
      {meta::Factor::kDistribution},
      {meta::Factor::kSpatial},
      {meta::Factor::kLearningPath},
      {meta::Factor::kDistribution, meta::Factor::kSpatial},
      {meta::Factor::kDistribution, meta::Factor::kSpatial,
       meta::Factor::kLearningPath},
  };

  std::cout << "=== " << spec.title << " ===\n";
  TablePrinter table({"cluster algorithm", "factors (Sim_d Sim_s Sim_l)",
                      "RMSE(km)", "MAE(km)", "MR", "TT(s)"});
  for (bool use_game : {true, false}) {
    for (const auto& factors : factor_subsets) {
      // GTMC vs plain multi-level k-medoids (the paper's "k-means" row).
      PredRow row =
          RunPredictionExperiment(workload, meta::MetaAlgorithm::kGttaml,
                                  factors, use_game, scale, options);
      table.AddRow({use_game ? "GTMC" : "k-means", FactorTicks(factors),
                    Fmt(row.rmse, 4), Fmt(row.mae, 4), Fmt(row.mr, 4),
                    Fmt(row.tt, 1)});
      RecordPredRow(std::string(use_game ? "GTMC" : "k-means") + "." +
                        FactorSlug(factors),
                    row);
      tt_sum += row.tt;
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n";
  if (JsonReport* report = JsonReport::active()) {
    report->AddStage("meta_train_tt_s", tt_sum);
    report->AddStage("total_s", total_watch.ElapsedSeconds());
  }
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);
}

void RunSeqLenSweep(const BenchSpec& spec, const core::RunOptions& options) {
  BenchScale scale;
  Stopwatch total_watch;
  double tt_sum = 0.0;

  struct Setting {
    int seq_in;
    int seq_out;
  };
  const std::vector<Setting> settings = {
      {1, 1}, {5, 1}, {10, 1},  // seq_in sweep (seq_out = 1).
      {5, 2}, {5, 3},           // seq_out sweep (seq_in = 5).
  };
  const std::vector<std::pair<const char*, meta::MetaAlgorithm>> algorithms = {
      {"MAML", meta::MetaAlgorithm::kMaml},
      {"CTML", meta::MetaAlgorithm::kCtml},
      {"GTTAML-GT", meta::MetaAlgorithm::kGttamlGt},
      {"GTTAML", meta::MetaAlgorithm::kGttaml},
  };

  std::cout << "=== " << spec.title << " ===\n";
  TablePrinter table({"seq_in", "seq_out", "algorithm", "RMSE(km)", "MAE(km)",
                      "MR", "TT(s)"});
  for (const Setting& setting : settings) {
    data::WorkloadConfig workload = RunWorkloadConfig(options, scale);
    workload.seq_in = setting.seq_in;
    workload.seq_out = setting.seq_out;
    for (const auto& [name, algorithm] : algorithms) {
      data::WorkloadConfig per_run = workload;
      PredRow row = RunPredictionExperiment(
          per_run, algorithm,
          {meta::Factor::kDistribution, meta::Factor::kSpatial,
           meta::Factor::kLearningPath},
          /*use_game=*/true, scale, options);
      table.AddRow({Fmt(static_cast<int64_t>(setting.seq_in)),
                    Fmt(static_cast<int64_t>(setting.seq_out)), name,
                    Fmt(row.rmse, 4), Fmt(row.mae, 4), Fmt(row.mr, 4),
                    Fmt(row.tt, 1)});
      RecordPredRow(std::string(name) + ".in" +
                        Fmt(static_cast<int64_t>(setting.seq_in)) + ".out" +
                        Fmt(static_cast<int64_t>(setting.seq_out)),
                    row);
      tt_sum += row.tt;
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n";
  if (JsonReport* report = JsonReport::active()) {
    report->AddStage("meta_train_tt_s", tt_sum);
    report->AddStage("total_s", total_watch.ElapsedSeconds());
  }
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);
}

void RunAssignmentSweep(const BenchSpec& spec,
                        const core::RunOptions& options) {
  BenchScale scale;
  data::WorkloadConfig workload_config = RunWorkloadConfig(options, scale);
  data::Workload workload = data::GenerateWorkload(workload_config);
  const std::vector<double>& values = spec.sweep_values;
  const std::vector<core::AssignMethod>& enabled =
      core::EffectiveMethods(options);
  Stopwatch total_watch;

  // Train once per loss variant; the sweep only perturbs the online stage.
  core::PipelineConfig base = RunPipelineConfig(options, scale);
  base.use_ta_loss = true;
  core::TampPipeline ta_pipeline(base);
  std::cout << "training (task-assignment-oriented loss) ..." << std::flush;
  core::OfflineResult ta_offline = ta_pipeline.TrainOffline(workload);
  std::cout << " done (MR " << Fmt(ta_offline.eval.aggregate.matching_rate, 3)
            << ", " << Fmt(ta_offline.models.train_seconds, 1) << "s)\n";

  core::PipelineConfig mse_config = base;
  mse_config.use_ta_loss = false;
  core::TampPipeline mse_pipeline(mse_config);
  std::cout << "training (MSE loss) ..." << std::flush;
  core::OfflineResult mse_offline = mse_pipeline.TrainOffline(workload);
  std::cout << " done (MR "
            << Fmt(mse_offline.eval.aggregate.matching_rate, 3) << ", "
            << Fmt(mse_offline.models.train_seconds, 1) << "s)\n";
  if (JsonReport* report = JsonReport::active()) {
    report->AddStage("train_ta_s", ta_offline.models.train_seconds);
    report->AddStage("train_mse_s", mse_offline.models.train_seconds);
  }

  TablePrinter completion({"method"}), rejection({"method"}),
      cost({"method"}), runtime({"method"});
  std::vector<std::string> header = {"method"};
  for (double v : values) header.push_back(Fmt(v, 1));
  completion = TablePrinter(header);
  rejection = TablePrinter(header);
  cost = TablePrinter(header);
  runtime = TablePrinter(header);

  for (const MethodSpec& method_spec : kMethods) {
    if (std::find(enabled.begin(), enabled.end(), method_spec.method) ==
        enabled.end()) {
      continue;
    }
    std::vector<std::string> comp_row = {method_spec.name};
    std::vector<std::string> rej_row = {method_spec.name};
    std::vector<std::string> cost_row = {method_spec.name};
    std::vector<std::string> time_row = {method_spec.name};
    for (double v : values) {
      // Perturb the workload along the sweep axis.
      data::Workload run = workload;
      switch (spec.sweep_var) {
        case SweepVar::kDetour:
          for (auto& worker : run.workers) worker.detour_budget_km = v;
          break;
        case SweepVar::kNumTasks:
        case SweepVar::kValidTime: {
          data::TaskStreamConfig stream;
          stream.num_tasks = spec.sweep_var == SweepVar::kNumTasks
                                 ? static_cast<int>(v)
                                 : workload_config.num_tasks;
          double test_day_offset = 1440.0 * workload_config.num_train_days;
          stream.horizon_start_min =
              test_day_offset + workload_config.day.day_start_min;
          stream.horizon_end_min =
              test_day_offset + workload_config.day.day_end_min;
          stream.valid_lo_units = spec.sweep_var == SweepVar::kValidTime
                                      ? v
                                      : workload_config.task_valid_lo_units;
          stream.valid_hi_units = spec.sweep_var == SweepVar::kValidTime
                                      ? v + 1.0
                                      : workload_config.task_valid_hi_units;
          stream.time_unit_min = workload_config.time_unit_min;
          Rng stream_rng(workload_config.seed ^ 0x7A5Cull);
          run.task_stream = data::GenerateTaskStream(stream, run.hotspots,
                                                     run.grid, stream_rng);
          break;
        }
      }
      core::TampPipeline& pipeline =
          method_spec.use_ta_loss_models ? ta_pipeline : mse_pipeline;
      core::OfflineResult& offline =
          method_spec.use_ta_loss_models ? ta_offline : mse_offline;
      core::SimMetrics metrics =
          pipeline.RunOnline(run, offline, method_spec.method);
      comp_row.push_back(Fmt(metrics.CompletionRatio(), 3));
      rej_row.push_back(Fmt(metrics.RejectionRatio(), 3));
      cost_row.push_back(Fmt(metrics.AvgCostKm(), 3));
      time_row.push_back(Fmt(metrics.assign_seconds, 3));
      if (JsonReport* report = JsonReport::active()) {
        std::string prefix = std::string(method_spec.name) + ".v" + Fmt(v, 1);
        report->AddMetric(prefix + ".completion", metrics.CompletionRatio());
        report->AddMetric(prefix + ".rejection", metrics.RejectionRatio());
        report->AddMetric(prefix + ".cost_km", metrics.AvgCostKm());
        report->AddMetric(prefix + ".assign_s", metrics.assign_seconds);
      }
      std::cout << "." << std::flush;
    }
    completion.AddRow(std::move(comp_row));
    rejection.AddRow(std::move(rej_row));
    cost.AddRow(std::move(cost_row));
    runtime.AddRow(std::move(time_row));
  }
  std::cout << "\n";

  auto print_panel = [&](const char* panel, TablePrinter& table) {
    std::cout << "\n--- " << spec.title << ": " << panel << " ---\n";
    table.Print(std::cout);
    std::cout << "CSV:\n";
    table.PrintCsv(std::cout);
  };
  print_panel("completion ratio", completion);
  print_panel("rejection ratio", rejection);
  print_panel("worker cost (km)", cost);
  print_panel("assignment running time (s)", runtime);
  if (JsonReport* report = JsonReport::active()) {
    report->AddStage("total_s", total_watch.ElapsedSeconds());
  }
}

}  // namespace tamp::bench
