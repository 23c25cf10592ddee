#pragma once

#include "assign/types.h"

namespace tamp::assign {

/// The KM baseline (Section IV-A): builds the bipartite graph exactly as
/// PPI's third stage does — a pair is feasible when the closest predicted
/// point satisfies dis^min <= min(d/2, d_t) — and solves one maximum-weight
/// matching with 1/dis^min weights. Ignores matching rates entirely.
///
/// Candidates come from the per-batch spatial index (CandidateIndex), and
/// the matching is one MaxWeightMatching over the feasible edges; tasks and
/// workers without one never enter its matrix (DESIGN.md §4l).
AssignmentPlan KmAssign(const std::vector<SpatialTask>& tasks,
                        const std::vector<CandidateWorker>& workers,
                        double now_min, double match_radius_km,
                        double weight_floor_km = 1e-3);

}  // namespace tamp::assign
