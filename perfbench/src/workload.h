#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "assign/types.h"
#include "core/pipeline.h"
#include "data/workload.h"

namespace perfbench {

/// Test days of demand drawn per seed; every replay round replays each one
/// through every method of the workload.
constexpr int kDemandDays = 4;

/// One named benchmark workload. Both share the calibrated Porto fleet;
/// they differ in where the training is timed and in the test-day demand
/// the replays see (see perfbench/README.md for why each was chosen).
struct WorkloadSpec {
  std::string name;
  /// Every cycle of the measured phase runs a TrainOffline before its
  /// replay round (the `train` workload); otherwise each set-up trains and
  /// the measured phase repeats replay rounds only.
  bool measures_training = false;
  /// Demand adds the porto_surge burst around the densest hotspot.
  bool surge = false;
  /// Assignment methods each replay round runs, in order.
  std::vector<tamp::core::AssignMethod> methods;
};

/// The workload with this name, or nullptr.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Names of every workload, for the usage message.
std::string WorkloadNames();

/// The calibrated Porto fleet (bench::BaseWorkloadConfig): 24 workers,
/// 3 train days, 700 baseline tasks per test day, at its fixed calibration
/// seed. Training inputs therefore do not depend on the benchmark seed.
tamp::data::WorkloadConfig FleetConfig();

/// The calibrated pipeline (bench::BasePipelineConfig): TA loss, GTTAML,
/// the fig-7 simulator block. Nothing is overridden.
tamp::core::PipelineConfig BenchPipelineConfig();

/// One test day of demand for the fleet, drawn from (seed, day) with the
/// same stream shape GenerateWorkload uses (config.num_tasks tasks over the
/// test-day horizon from the fleet's hotspots). With `surge` the porto_surge
/// burst is added on top: config.surge.extra_task_factor * num_tasks extra
/// tasks in the surge window around the densest hotspot. Sorted by release
/// time, ids 0..n-1.
std::vector<tamp::assign::SpatialTask> DrawDemand(
    const tamp::data::WorkloadConfig& config, const tamp::data::Workload& fleet,
    bool surge, uint64_t seed, int day);

}  // namespace perfbench
