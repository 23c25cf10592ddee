#include "assign/km_assigner.h"

#include <optional>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "matching/hungarian.h"

namespace tamp::assign {

AssignmentPlan KmAssign(const std::vector<SpatialTask>& tasks,
                        const std::vector<CandidateWorker>& workers,
                        double now_min, double match_radius_km,
                        double weight_floor_km) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& solves_counter = registry.GetCounter("km.solves");
  static obs::Counter& edges_counter = registry.GetCounter("km.edges");
  static obs::Histogram& solve_hist =
      registry.GetHistogram("km.solve_s", obs::DurationEdgesSeconds());
  static obs::Histogram& build_hist = registry.GetHistogram(
      "assign.index_build_s", obs::DurationEdgesSeconds());

  AssignmentPlan plan;
  if (tasks.empty() || workers.empty()) return plan;

  std::optional<obs::TraceSpan> build_span(std::in_place, "km.index_build");
  Stopwatch build_watch;
  const CandidateIndex index(workers);
  build_hist.Record(build_watch.ElapsedSeconds());
  build_span.reset();
  std::optional<obs::TraceSpan> candidates_span(std::in_place,
                                                "assign.candidates");
  const std::vector<std::vector<TaskCandidate>> table = GenerateCandidates(
      tasks, workers, match_radius_km, now_min, &index);
  candidates_span.reset();

  std::vector<matching::Edge> edges;
  for (size_t t = 0; t < table.size(); ++t) {
    for (const TaskCandidate& tc : table[t]) {
      if (!tc.stage3_feasible) continue;
      edges.push_back({static_cast<int>(t), tc.worker,
                       1.0 / (tc.min_dis + weight_floor_km)});
    }
  }
  solves_counter.Increment();
  edges_counter.Increment(static_cast<int64_t>(edges.size()));
  Stopwatch solve_watch;
  obs::TraceSpan solve_span("km.solve");
  const matching::MatchResult result = matching::MaxWeightMatching(
      static_cast<int>(tasks.size()), static_cast<int>(workers.size()), edges);
  solve_hist.Record(solve_watch.ElapsedSeconds());
  for (auto [t, w] : result.pairs) {
    // Recover dis^min of the matched pair from its table row (rows hold
    // ascending worker indices, so the scan is short and deterministic).
    double min_dis = 0.0;
    for (const TaskCandidate& tc : table[static_cast<size_t>(t)]) {
      if (tc.worker == w) {
        min_dis = tc.min_dis;
        break;
      }
    }
    plan.pairs.push_back({t, w, min_dis});
  }
  return plan;
}

}  // namespace tamp::assign
