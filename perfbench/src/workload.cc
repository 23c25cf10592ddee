#include "workload.h"

#include <algorithm>
#include <iterator>

#include "bench_common.h"
#include "common/rng.h"
#include "data/tasks.h"

namespace perfbench {

namespace {

using tamp::core::AssignMethod;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"train", /*measures_training=*/true, /*surge=*/false,
       {AssignMethod::kKm, AssignMethod::kPpi, AssignMethod::kGgpso}},
      {"surge", false, true,
       {AssignMethod::kLowerBound, AssignMethod::kKm, AssignMethod::kPpi}},
  };
  return kAll;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (!names.empty()) names += "|";
    names += spec.name;
  }
  return names;
}

tamp::data::WorkloadConfig FleetConfig() {
  return tamp::bench::BaseWorkloadConfig(tamp::data::WorkloadKind::kPortoDidi,
                                         tamp::bench::BenchScale{});
}

tamp::core::PipelineConfig BenchPipelineConfig() {
  return tamp::bench::BasePipelineConfig(tamp::bench::BenchScale{});
}

std::vector<tamp::assign::SpatialTask> DrawDemand(
    const tamp::data::WorkloadConfig& config, const tamp::data::Workload& fleet,
    bool surge, uint64_t seed, int day) {
  tamp::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(day));
  const double test_day_offset = 1440.0 * config.num_train_days;
  tamp::data::TaskStreamConfig stream;
  stream.num_tasks = config.num_tasks;
  stream.horizon_start_min = test_day_offset + config.day.day_start_min;
  stream.horizon_end_min = test_day_offset +
                           1440.0 * (config.num_test_days - 1) +
                           config.day.day_end_min;
  stream.valid_lo_units = config.task_valid_lo_units;
  stream.valid_hi_units = config.task_valid_hi_units;
  stream.time_unit_min = config.time_unit_min;
  std::vector<tamp::assign::SpatialTask> tasks =
      tamp::data::GenerateTaskStream(stream, fleet.hotspots, fleet.grid, rng);
  if (!surge || fleet.hotspots.empty()) return tasks;

  const tamp::data::TaskHotspot* densest = &fleet.hotspots.front();
  for (const tamp::data::TaskHotspot& h : fleet.hotspots) {
    if (h.weight > densest->weight) densest = &h;
  }
  const double span = stream.horizon_end_min - stream.horizon_start_min;
  tamp::data::TaskStreamConfig burst = stream;
  burst.num_tasks =
      static_cast<int>(config.surge.extra_task_factor * config.num_tasks);
  burst.horizon_start_min =
      stream.horizon_start_min + config.surge.start_fraction * span;
  burst.horizon_end_min =
      burst.horizon_start_min + config.surge.duration_fraction * span;
  burst.rush_amplitude = 0.0;
  const std::vector<tamp::assign::SpatialTask> extra =
      tamp::data::GenerateTaskStream(
          burst, {{densest->center, config.surge.hotspot_spread_km, 1.0}},
          fleet.grid, rng);
  std::vector<tamp::assign::SpatialTask> merged;
  merged.reserve(tasks.size() + extra.size());
  std::merge(tasks.begin(), tasks.end(), extra.begin(), extra.end(),
             std::back_inserter(merged),
             [](const tamp::assign::SpatialTask& a,
                const tamp::assign::SpatialTask& b) {
               return a.release_time_min < b.release_time_min;
             });
  for (size_t i = 0; i < merged.size(); ++i) {
    merged[i].id = static_cast<int>(i);
  }
  return merged;
}

}  // namespace perfbench
