#pragma once

#include "assign/types.h"
#include "common/rng.h"

namespace tamp::assign {

/// Parameters of the GGPSO baseline.
struct GgpsoConfig {
  int population = 24;
  int generations = 60;
  double crossover_rate = 0.7;
  double mutation_rate = 0.15;
  /// Fitness = completed-pair count + cost_weight * sum(1/(1+dis)).
  double cost_weight = 0.25;
  /// Matching-rate radius a used in the feasibility test (same as PPI's).
  double match_radius_km = 0.5;
  uint64_t seed = 99;
};

/// GGPSO [11]: the state-of-the-art mobility-prediction-aware assignment
/// baseline — a genetic algorithm with particle-swarm-style guidance that
/// iteratively improves a population of assignment plans through
/// crossover with the global best, mutation, and tournament selection.
/// Feasibility uses the same predicted-trajectory test as PPI's stage 3,
/// on candidates from the per-batch spatial index (CandidateIndex). The
/// population evolves through ONE sequential RNG stream spanning all
/// tasks, so the GA runs over the whole batch at once.
AssignmentPlan GgpsoAssign(const std::vector<SpatialTask>& tasks,
                           const std::vector<CandidateWorker>& workers,
                           double now_min, const GgpsoConfig& config);

}  // namespace tamp::assign
