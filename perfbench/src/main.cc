// The repository benchmark: one process runs one named workload of the
// TAMP pipeline (offline training and/or online day replays) for a fixed
// measuring time, checks every operation's outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of stdout. perfbench/README.md documents the workloads, the
// metrics and which layer should move which end-to-end number.
//
//   perfbench --workload train|surge --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-rev REV] [--source-digest HEX]
//
// The library is driven only through public entry points with default
// arguments; no mode switch of the simulator or the assigners is set.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "layers.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using tamp::Stopwatch;
using tamp::core::AssignMethod;
using tamp::core::SimMetrics;

/// Threads of the library's parallel runtime, fixed so that runs on one
/// machine compare. Training runs at kTrainThreads, capped by the
/// machine's hardware threads. Replays and the layer pass run at
/// kReplayThreads: a replay's parallel regions (the forecast of ~10
/// available workers per trigger) last microseconds, and each waits for
/// every worker that joined it, so on a shared VM any preempted CPU stalls
/// the replay. At 4 threads a `train` round ran ~12% slower than at 1, and
/// its rate spread 0.22-0.31 (IQR / median) over runs against 0.07 at 1.
constexpr int kTrainThreads = 4;
constexpr int kReplayThreads = 1;
/// Set-ups per run: at least kMinSetups, and more while the set-ups so far
/// took under kSetupSeconds (only `train`, whose set-up trains nothing, is
/// cheap enough to repeat). setup_s and, on `surge`, train_s are their
/// median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 1000;
constexpr double kSetupSeconds = 2.0;
/// Floor on the cycles of the measured phase, whatever --seconds says.
constexpr int kMinCycles = 2;
/// Replay rounds per cycle on `train`. A round there (~4 s) is short
/// against a training (~6 s), and its forecast-bound rate moves with host
/// load over seconds, so it gets two samples per training.
constexpr int kRoundsPerTraining = 2;

/// Every per-layer metric, in print order, with its unit. Layers a
/// workload does not run report 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"data.generate_s", "s"},
      {"meta.train_offline_s", "s"},
      {"core.ta_weighter_s", "s"},
      {"meta.train_s", "s"},
      {"meta.evaluate_s", "s"},
      {"similarity.paths_s", "s"},
      {"similarity.factors_s", "s"},
      {"cluster.tree_s", "s"},
      {"meta.taml_s", "s"},
      {"meta.fine_tune_s", "s"},
      {"meta.adapt_steps", "count"},
      {"meta.iterations", "count"},
      {"cluster.br_rounds", "count"},
      {"eval.points", "count"},
      {"sim.day_s.KM", "s"},
      {"sim.day_s.PPI", "s"},
      {"sim.day_s.GGPSO", "s"},
      {"sim.day_s.LB", "s"},
      {"sim.assign_s", "s"},
      {"sim.batches", "count"},
      {"sim.batch_skips", "count"},
      {"sim.pool_depth.avg", "count"},
      {"sim.available_workers.avg", "count"},
      {"layer.views_s", "s"},
      {"nn.forecast_s", "s"},
      {"nn.forecast_cells", "count"},
      {"nn.batched_gemm_calls", "count"},
      {"assign.candidates_s", "s"},
      {"assign.solve_s.KM", "s"},
      {"assign.solve_s.PPI", "s"},
      {"assign.solve_s.GGPSO", "s"},
      {"assign.solve_s.LB", "s"},
      {"assign.candidate_evals", "count"},
      {"assign.candidates_pruned", "count"},
      {"assign.candidate_yield", "ratio"},
      {"layer.candidate_rows", "count"},
      {"layer.candidate_evals", "count"},
      {"ppi.stage1_certain_edges", "count"},
      {"ppi.stage2_pending_edges", "count"},
      {"ppi.stage3_fallback_edges", "count"},
      {"ggpso.generations", "count"},
      {"matching.solve_s", "s"},
      {"km.edges", "count"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.train_split_exact", "count"},
  };
  return kAll;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (!(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else if (flag == "--git-rev") {
      options->git_rev = value;
    } else if (flag == "--source-digest") {
      options->source_digest = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return have_workload && FindWorkload(options->workload) != nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double SnapshotValue(const std::map<std::string, double>& snapshot,
                const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

/// Moves the driving thread over the CPUs it may run on, one CPU per timed
/// operation. The virtual CPUs of a shared VM can run at very different
/// speeds at one moment (1.6x apart on the 4-core VM this was tuned on,
/// with the slow one changing over minutes), and an unpinned run mostly
/// stays on the CPU it started on. Rotating spreads every run's samples
/// over all CPUs, so a median does not hinge on that draw. Start the
/// parallel runtime's pool before the first Next(): its worker threads
/// then keep the full CPU set.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU of the original set.
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// The inputs and trained models one set-up produces.
struct Setup {
  tamp::data::Workload fleet;
  std::vector<tamp::data::Workload> days;  // The fleet with each day's demand.
  tamp::core::OfflineResult offline;
};

/// Checks one training against the run's first (the reference).
void CheckTraining(const std::string& op, const tamp::core::OfflineResult& got,
                   const tamp::core::OfflineResult* reference, CheckLog& log) {
  std::vector<std::string> problems;
  if (!std::isfinite(got.eval.aggregate.rmse_km)) {
    problems.push_back("pred_rmse_km is not finite");
  }
  if (reference != nullptr) {
    if (!SameParams(got.models.worker_params,
                    reference->models.worker_params)) {
      problems.push_back("params differ from the run's first training");
    }
    if (!SameEval(got.eval.aggregate, reference->eval.aggregate)) {
      problems.push_back("evaluation differs from the run's first training");
    }
  }
  log.Record(op, problems);
}

/// One round: every demand day replayed through every method.
struct Round {
  double seconds = 0.0;
  int64_t triggers = 0;
  double assign_seconds = 0.0;
  std::map<AssignMethod, std::vector<double>> day_seconds;
  std::vector<double> replay_seconds;
  SimMetrics total;  // Summed over the round's replays.
};

class Replayer {
 public:
  Replayer(tamp::core::TampPipeline& pipeline, const WorkloadSpec& spec,
           const Setup& setup, CheckLog& log, CpuRotation& cpus)
      : pipeline_(pipeline),
        spec_(spec),
        setup_(setup),
        log_(log),
        cpus_(cpus),
        triggers_(tamp::obs::MetricsRegistry::Global().GetCounter(
            "sim.ev_assign_trigger")) {}

  /// Replays every (day, method) once, under a "bench.round" span with one
  /// "bench.replay.<method>" span per replay (recorded only while tracing).
  Round RunRound(const std::string& label) {
    Round round;
    tamp::obs::TraceSpan root("bench.round");
    for (size_t d = 0; d < setup_.days.size(); ++d) {
      for (AssignMethod method : spec_.methods) {
        const std::string name(tamp::core::AssignMethodName(method));
        const int64_t triggers_before = triggers_.value();
        cpus_.Next();
        Stopwatch watch;
        SimMetrics got;
        {
          tamp::obs::TraceSpan span("bench.replay." + name);
          got = pipeline_.RunOnline(setup_.days[d], setup_.offline, method);
        }
        const double seconds = watch.ElapsedSeconds();
        const int64_t triggers = triggers_.value() - triggers_before;
        Check(label + " day " + std::to_string(d) + " " + name, d, method,
              got, triggers);
        round.seconds += seconds;
        round.triggers += triggers;
        round.assign_seconds += got.assign_seconds;
        round.day_seconds[method].push_back(seconds);
        round.replay_seconds.push_back(seconds);
        round.total.total_tasks += got.total_tasks;
        round.total.assignments += got.assignments;
        round.total.accepted += got.accepted;
        round.total.completed += got.completed;
        round.total.dropouts += got.dropouts;
        round.total.total_cost_km += got.total_cost_km;
      }
    }
    return round;
  }

 private:
  void Check(const std::string& op, size_t day, AssignMethod method,
             const SimMetrics& got, int64_t triggers) {
    std::vector<std::string> problems = OutcomeViolations(got);
    if (got.total_tasks !=
        static_cast<int>(setup_.days[day].task_stream.size())) {
      problems.push_back("total_tasks differs from the day's demand");
    }
    if (triggers <= 0) problems.push_back("no assign trigger replayed");
    const auto key = std::make_pair(day, method);
    const auto it = reference_.find(key);
    if (it == reference_.end()) {
      reference_.emplace(key, got);
    } else if (!SameOutcome(got, it->second)) {
      problems.push_back("SimMetrics differ from the run's first replay");
    }
    log_.Record(op, problems);
  }

  tamp::core::TampPipeline& pipeline_;
  const WorkloadSpec& spec_;
  const Setup& setup_;
  CheckLog& log_;
  CpuRotation& cpus_;
  tamp::obs::Counter& triggers_;
  std::map<std::pair<size_t, AssignMethod>, SimMetrics> reference_;
};

std::string Manifest(const Options& options, const WorkloadSpec& spec,
                     const tamp::data::WorkloadConfig& fleet,
                     const tamp::core::PipelineConfig& pipeline,
                     int train_threads) {
  std::string methods;
  for (AssignMethod m : spec.methods) {
    if (!methods.empty()) methods += ", ";
    methods += JsonString(std::string(tamp::core::AssignMethodName(m)));
  }
  const auto num = [](double v) { return JsonNumber(v); };
  std::string out = "{";
  out += "\"git_rev\": " + JsonString(options.git_rev);
  out += ", \"source_digest\": " + JsonString(options.source_digest);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  out += ", \"train_threads\": " + std::to_string(train_threads);
  out += ", \"replay_threads\": " + std::to_string(kReplayThreads);
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"workload\": " + JsonString(spec.name);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + num(options.seconds);
  out += ", \"trace\": " + std::to_string(options.trace);
  out += ", \"demand\": {\"days\": " + std::to_string(kDemandDays) +
         ", \"surge\": " + (spec.surge ? "true" : "false") +
         ", \"tasks_per_day\": " + std::to_string(fleet.num_tasks) +
         ", \"surge_extra_task_factor\": " +
         num(spec.surge ? fleet.surge.extra_task_factor : 0.0) + "}";
  out += ", \"methods\": [" + methods + "]";
  out += ", \"fleet\": {\"dataset\": " +
         JsonString(std::string(tamp::data::WorkloadKindName(fleet.kind))) +
         ", \"seed\": " + std::to_string(fleet.seed) +
         ", \"workers\": " + std::to_string(fleet.num_workers) +
         ", \"train_days\": " + std::to_string(fleet.num_train_days) +
         ", \"historical_tasks\": " +
         std::to_string(fleet.num_historical_tasks) +
         ", \"detour_budget_km\": " + num(fleet.detour_budget_km) +
         ", \"online_fraction\": " + num(fleet.online_fraction) + "}";
  out += ", \"pipeline\": {\"ta_loss\": " +
         std::string(pipeline.use_ta_loss ? "true" : "false") +
         ", \"gttaml\": " +
         std::string(pipeline.meta_algorithm ==
                             tamp::meta::MetaAlgorithm::kGttaml
                         ? "true"
                         : "false") +
         ", \"hidden_dim\": " +
         std::to_string(pipeline.trainer.model.hidden_dim) +
         ", \"meta_iterations\": " +
         std::to_string(pipeline.trainer.meta.iterations) +
         ", \"fine_tune_steps\": " +
         std::to_string(pipeline.trainer.fine_tune_steps) +
         ", \"batch_window_min\": " + num(pipeline.sim.batch_window_min) +
         ", \"prediction_horizon_steps\": " +
         std::to_string(pipeline.sim.prediction_horizon_steps) +
         ", \"match_radius_km\": " + num(pipeline.sim.match_radius_km) +
         ", \"ppi_epsilon\": " + std::to_string(pipeline.sim.ppi.epsilon) +
         ", \"ggpso_population\": " +
         std::to_string(pipeline.sim.ggpso.population) +
         ", \"ggpso_generations\": " +
         std::to_string(pipeline.sim.ggpso.generations) + "}";
  return out + "}";
}

int Run(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  const int train_threads = std::max(
      1, std::min<int>(kTrainThreads,
                       static_cast<int>(std::thread::hardware_concurrency())));
  tamp::SetParallelThreadCount(train_threads);
  tamp::ParallelFor(64, [](size_t) {});  // Starts the pool (see CpuRotation).
  CpuRotation cpus;
  const tamp::data::WorkloadConfig fleet_config = FleetConfig();
  const tamp::core::PipelineConfig pipeline_config = BenchPipelineConfig();
  tamp::core::TampPipeline pipeline(pipeline_config);
  tamp::obs::MetricsRegistry& registry = tamp::obs::MetricsRegistry::Global();
  std::cout << "manifest "
            << Manifest(options, spec, fleet_config, pipeline_config,
                        train_threads)
            << "\n";

  CheckLog log;
  std::vector<double> setup_s, generate_s, train_s;
  std::map<std::string, double> train_counts;
  Setup setup;
  Stopwatch setups;
  for (int r = 0; r < kMinSetups ||
                  (r < kMaxSetups && setups.ElapsedSeconds() < kSetupSeconds);
       ++r) {
    cpus.Next();
    Stopwatch total;
    Setup s;
    s.fleet = tamp::data::GenerateWorkload(fleet_config);
    for (int d = 0; d < kDemandDays; ++d) {
      s.days.push_back(s.fleet);
      s.days.back().task_stream =
          DrawDemand(fleet_config, s.fleet, spec.surge, options.seed, d);
    }
    generate_s.push_back(total.ElapsedSeconds());
    if (!spec.measures_training) {
      if (r == 0) registry.ResetAll();
      Stopwatch watch;
      s.offline = pipeline.TrainOffline(s.fleet);
      train_s.push_back(watch.ElapsedSeconds());
      if (r == 0) train_counts = registry.Snapshot();
      CheckTraining("setup training " + std::to_string(r), s.offline,
                    r == 0 ? nullptr : &setup.offline, log);
    }
    setup_s.push_back(total.ElapsedSeconds());
    if (r == 0) setup = std::move(s);
  }

  // The measured phase: cycles of (on `train`) one TrainOffline and its
  // replay rounds, so that train_s and triggers_per_s sample the same span
  // of host time. The run's first training supplies the models every
  // round replays; later trainings must equal it bit for bit.
  Replayer replayer(pipeline, spec, setup, log, cpus);
  std::vector<Round> rounds;
  std::map<std::string, double> online_counts;
  Stopwatch phase;
  for (int c = 0; c < kMinCycles || phase.ElapsedSeconds() < options.seconds;
       ++c) {
    if (spec.measures_training) {
      tamp::SetParallelThreadCount(train_threads);
      if (c == 0) registry.ResetAll();
      cpus.Next();
      Stopwatch watch;
      tamp::core::OfflineResult trained = pipeline.TrainOffline(setup.fleet);
      train_s.push_back(watch.ElapsedSeconds());
      CheckTraining("training " + std::to_string(c), trained,
                    c == 0 ? nullptr : &setup.offline, log);
      if (c == 0) {
        train_counts = registry.Snapshot();
        setup.offline = std::move(trained);
      }
    }
    tamp::SetParallelThreadCount(kReplayThreads);
    for (int r = 0; r < (spec.measures_training ? kRoundsPerTraining : 1);
         ++r) {
      if (rounds.empty()) registry.ResetAll();
      rounds.push_back(
          replayer.RunRound("round " + std::to_string(rounds.size())));
      if (rounds.size() == 1) online_counts = registry.Snapshot();
    }
  }

  std::vector<double> round_rates, round_seconds, round_assign, replay_seconds;
  std::map<AssignMethod, std::vector<double>> day_seconds;
  for (const Round& round : rounds) {
    round_rates.push_back(static_cast<double>(round.triggers) / round.seconds);
    round_seconds.push_back(round.seconds);
    round_assign.push_back(round.assign_seconds);
    replay_seconds.insert(replay_seconds.end(), round.replay_seconds.begin(),
                          round.replay_seconds.end());
    for (const auto& [method, seconds] : round.day_seconds) {
      auto& all = day_seconds[method];
      all.insert(all.end(), seconds.begin(), seconds.end());
    }
  }
  const SimMetrics& day_total = rounds.front().total;
  const tamp::meta::PredictionMetrics& prediction =
      setup.offline.eval.aggregate;

  Report report;
  if (options.trace == 0) {
    report.AddMedian("setup_s", "s", setup_s);
    report.AddMedian("train_s", "s", train_s);
    report.Add("pred_rmse_km", prediction.rmse_km, "km",
               static_cast<size_t>(prediction.num_points));
    report.Add("pred_matching_rate", prediction.matching_rate, "ratio",
               static_cast<size_t>(prediction.num_points));
    report.AddMedian("triggers_per_s", "1/s", round_rates);
    report.Add("completion_ratio", day_total.CompletionRatio(), "ratio",
               static_cast<size_t>(day_total.total_tasks));
    report.Add("rejection_ratio", day_total.RejectionRatio(), "ratio",
               static_cast<size_t>(day_total.assignments));
    report.Add("detour_km", day_total.AvgCostKm(), "km",
               static_cast<size_t>(day_total.completed));
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.AddDistribution("replay_s", "s", replay_seconds);
    report.AddDistribution("round_s", "s", round_seconds);
  } else {
    // Everything below records into the library's global trace recorder:
    // the benchmark's "bench.*" spans and the library's own spans.
    tamp::obs::TraceRecorder& recorder = tamp::obs::TraceRecorder::Global();
    recorder.Clear();
    recorder.Enable();
    tamp::SetParallelThreadCount(train_threads);
    const TracedTraining traced = TraceTraining(
        pipeline_config, setup.fleet, setup.offline.models.worker_params);
    if (traced.split_exact) {
      log.Record("traced training",
                 SameEval(traced.eval.aggregate, prediction)
                     ? std::vector<std::string>{}
                     : std::vector<std::string>{
                           "traced evaluation differs from TrainOffline's"});
    } else {
      std::cout << "note: the sub-layer training split did not reproduce "
                   "Train's params bit for bit; meta.train_s times Train "
                   "itself and the sub-layer metrics read 0\n";
    }
    tamp::SetParallelThreadCount(kReplayThreads);
    Stopwatch traced_watch;
    replayer.RunRound("traced round");
    const double traced_round_s = traced_watch.ElapsedSeconds();
    // The first day only: the open-loop pools are larger than the
    // replay's, so on `surge` one day's pass costs close to a whole round.
    const LayerPassCounts layer = LayerPass(
        pipeline_config, setup.days.front(), setup.offline, spec.methods);
    recorder.Disable();
    const std::vector<tamp::obs::TraceEvent> events = recorder.Snapshot();
    const std::string trace_path = options.out_dir + "/trace-" + spec.name +
                                   "-seed" + std::to_string(options.seed) +
                                   ".json";
    const tamp::Status written = recorder.WriteChromeTrace(trace_path);
    if (!written.ok()) log.Record("write trace", {written.message()});
    if (recorder.dropped() > 0) {
      log.Record("trace capacity", {"the trace recorder dropped " +
                                    std::to_string(recorder.dropped()) +
                                    " spans"});
    }
    std::cout << "trace " << trace_path << " (" << events.size()
              << " spans)\n";

    const std::map<std::string, SpanTotals> totals = TotalsByName(events);
    const auto span_s = [&totals](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };
    const auto self_s = [&totals](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    const double median_round_s = Median(round_seconds);
    std::map<std::string, double> values = {
        {"data.generate_s", Median(generate_s)},
        {"meta.train_offline_s", Median(train_s)},
        {"core.ta_weighter_s", span_s("bench.core.ta_weighter")},
        {"meta.train_s", span_s(traced.split_exact
                                    ? "bench.meta.train"
                                    : "bench.meta.train_fallback")},
        {"meta.evaluate_s", span_s("bench.meta.evaluate")},
        {"sim.assign_s", Median(round_assign)},
        {"layer.views_s", self_s("bench.trigger")},
        {"nn.forecast_s", span_s("bench.nn.forecast")},
        {"assign.candidates_s", span_s("bench.assign.candidates")},
        {"matching.solve_s", span_s("bench.matching.solve")},
        {"layer.candidate_rows", static_cast<double>(layer.candidate_rows)},
        {"layer.candidate_evals", static_cast<double>(layer.candidate_evals)},
        {"assign.candidate_yield",
         layer.candidate_evals == 0
             ? 0.0
             : static_cast<double>(layer.candidate_rows) /
                   static_cast<double>(layer.candidate_evals)},
        {"trace.overhead_s", traced_round_s - median_round_s},
        {"trace.overhead_ratio", traced_round_s / median_round_s - 1.0},
        {"trace.train_split_exact", traced.split_exact ? 1.0 : 0.0},
    };
    if (traced.split_exact) {
      for (const char* name : {"similarity.paths", "similarity.factors",
                               "cluster.tree", "meta.taml", "meta.fine_tune"}) {
        values[std::string(name) + "_s"] =
            span_s("bench." + std::string(name));
      }
    }
    for (const auto& [method, seconds] : day_seconds) {
      const std::string name(tamp::core::AssignMethodName(method));
      values["sim.day_s." + name] = Median(seconds);
      values["assign.solve_s." + name] = span_s("bench.assign.solve." + name);
    }
    for (const char* name : {"meta.adapt_steps", "meta.iterations",
                             "cluster.br_rounds", "eval.points"}) {
      values[name] = SnapshotValue(train_counts, name);
    }
    for (const char* name :
         {"sim.batches", "sim.batch_skips", "sim.pool_depth.avg",
          "sim.available_workers.avg", "nn.forecast_cells",
          "nn.batched_gemm_calls", "assign.candidate_evals",
          "assign.candidates_pruned", "ppi.stage1_certain_edges",
          "ppi.stage2_pending_edges", "ppi.stage3_fallback_edges",
          "ggpso.generations", "km.edges"}) {
      values[name] = SnapshotValue(online_counts, name);
    }
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = values.find(name);
      report.Add(name, it == values.end() ? 0.0 : it->second, unit, 1);
    }
    std::cout << "note: layer times come from one traced pass (the training "
                 "split and an open-loop layer pass over "
              << layer.triggers
              << " triggers); they attribute the replay's cost and do not "
                 "sum to it\n";
    for (const auto& [name, t] : totals) {
      std::cout << "span " << name << " count=" << t.count
                << " total_s=" << t.total_s << " self_s=" << t.self_s << "\n";
    }
  }

  report.Print(std::cout);
  for (const std::string& message : log.messages()) {
    std::cout << "check failed: " << message << "\n";
  }
  const bool correct = log.failed() == 0;
  std::cout << report.ResultJson(correct, log.attempted(), log.failed())
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::cerr << "usage: perfbench --workload " << perfbench::WorkloadNames()
              << " --seed N --seconds S --trace 0|1 [--out-dir DIR]"
                 " [--git-rev REV] [--source-digest HEX]\n";
    return 2;
  }
  return perfbench::Run(options);
}
