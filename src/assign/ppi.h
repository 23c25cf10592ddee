#pragma once

#include "assign/types.h"

namespace tamp::assign {

/// Parameters of the Prediction-Performance-Involved assignment algorithm.
struct PpiConfig {
  /// Matching-rate radius a (Def. 7 / Theorem 2), km.
  double match_radius_km = 0.5;
  /// Stage-2 batching threshold epsilon (Alg. 4 line 20): how many B-pairs
  /// accumulate before an intermediate KM call.
  int epsilon = 8;
  /// Numerical floor added to distances before taking reciprocals as edge
  /// weights (1/minB), so zero-distance candidates stay finite.
  double weight_floor_km = 1e-3;
};

/// Prediction Performance-Involved Task Assignment (Algorithm 4).
///
/// Stage 1 matches pairs whose expected completion probability is certain
/// (|B| * MR >= 1); stage 2 drains the remaining Theorem-2 candidates in
/// descending |B| * MR order, epsilon at a time; stage 3 falls back to a
/// plain predicted-trajectory bipartite matching for everything left. The
/// per-stage KM calls use 1/minB (or 1/dis^min) as edge weights so shorter
/// expected detours win.
///
/// Candidates come from the per-batch spatial index (CandidateIndex). Every
/// stage's KM is one MaxWeightMatching over the batch; tasks and workers
/// without a stage edge never enter its matrix (DESIGN.md §4l).
AssignmentPlan PpiAssign(const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers,
                         double now_min, const PpiConfig& config);

}  // namespace tamp::assign
