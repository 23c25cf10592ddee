#include "assign/ggpso.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"

namespace tamp::assign {
namespace {

/// A chromosome: worker index per task, or -1 when unassigned. Workers
/// appear at most once.
struct Individual {
  std::vector<int> worker_of_task;
  double fitness = -std::numeric_limits<double>::infinity();
};

/// One (task, worker) cell of the dense edge table.
struct PairEdge {
  double min_dis = std::numeric_limits<double>::infinity();
  double closeness = 0.0;  // 1 / (1 + min_dis); 0 when not feasible.
};

/// Feasible workers per task, in the candidate order the operators draw
/// from, plus each pair's distance and fitness cost term in one dense
/// T x W table, built once per solve, so the fitness and the plan look a
/// pair up without scanning its row. Where a pair has duplicate edges,
/// the first one in its row wins.
struct FeasibilityTable {
  std::vector<std::vector<int>> rows;
  size_t num_workers = 0;
  std::vector<PairEdge> dense;  // [task * num_workers + worker].

  const PairEdge& Edge(size_t task, int worker) const {
    return dense[task * num_workers + static_cast<size_t>(worker)];
  }
};

FeasibilityTable BuildTable(const std::vector<SpatialTask>& tasks,
                            const std::vector<CandidateWorker>& workers,
                            double match_radius_km, double now_min) {
  static obs::Histogram& build_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "assign.index_build_s", obs::DurationEdgesSeconds());
  std::optional<obs::TraceSpan> build_span(std::in_place,
                                           "ggpso.index_build");
  Stopwatch build_watch;
  const CandidateIndex index(workers);
  build_hist.Record(build_watch.ElapsedSeconds());
  build_span.reset();
  std::optional<obs::TraceSpan> candidates_span(std::in_place,
                                                "assign.candidates");
  const std::vector<std::vector<TaskCandidate>> candidates =
      GenerateCandidates(tasks, workers, match_radius_km, now_min, &index);
  candidates_span.reset();
  FeasibilityTable table;
  table.rows.resize(tasks.size());
  table.num_workers = workers.size();
  table.dense.resize(tasks.size() * workers.size());
  for (size_t t = 0; t < candidates.size(); ++t) {
    for (const TaskCandidate& tc : candidates[t]) {
      if (tc.stage3_feasible) table.rows[t].push_back(tc.worker);
    }
    // Backwards, so the first of duplicate edges is written last and wins.
    for (size_t e = candidates[t].size(); e-- > 0;) {
      const TaskCandidate& tc = candidates[t][e];
      if (!tc.stage3_feasible) continue;
      table.dense[t * table.num_workers + static_cast<size_t>(tc.worker)] =
          {tc.min_dis, 1.0 / (1.0 + tc.min_dis)};
    }
  }
  return table;
}

double Fitness(const Individual& ind, const FeasibilityTable& table,
               double cost_weight) {
  double completed = 0.0, cost_term = 0.0;
  for (size_t t = 0; t < ind.worker_of_task.size(); ++t) {
    int w = ind.worker_of_task[t];
    if (w < 0) continue;
    completed += 1.0;
    cost_term += table.Edge(t, w).closeness;
  }
  return completed + cost_weight * cost_term;
}

/// Fills `ind` with a random feasible plan; `used` is one flag per worker.
void RandomIndividual(const FeasibilityTable& table, Rng& rng,
                      std::vector<char>& used, Individual& ind) {
  ind.worker_of_task.assign(table.rows.size(), -1);
  std::fill(used.begin(), used.end(), 0);
  std::vector<size_t> order(table.rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  for (size_t t : order) {
    const std::vector<int>& row = table.rows[t];
    if (row.empty()) continue;
    size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(row.size()) - 1));
    // Linear probe from a random start so every feasible worker can win.
    for (size_t probe = 0; probe < row.size(); ++probe) {
      const int worker = row[(pick + probe) % row.size()];
      if (!used[static_cast<size_t>(worker)]) {
        ind.worker_of_task[t] = worker;
        used[static_cast<size_t>(worker)] = 1;
        break;
      }
    }
  }
}

/// PSO-style guided crossover into `child`: it keeps each gene from the
/// global best with probability `pull`, otherwise from the parent,
/// repairing duplicate workers by dropping later conflicts.
void Crossover(const Individual& parent, const Individual& best, double pull,
               Rng& rng, std::vector<char>& used, Individual& child) {
  child.worker_of_task.assign(parent.worker_of_task.size(), -1);
  std::fill(used.begin(), used.end(), 0);
  for (size_t t = 0; t < parent.worker_of_task.size(); ++t) {
    int gene = rng.Bernoulli(pull) ? best.worker_of_task[t]
                                   : parent.worker_of_task[t];
    if (gene >= 0 && !used[static_cast<size_t>(gene)]) {
      child.worker_of_task[t] = gene;
      used[static_cast<size_t>(gene)] = 1;
    }
  }
}

void Mutate(Individual& ind, const FeasibilityTable& table, double rate,
            Rng& rng, std::vector<char>& used) {
  std::fill(used.begin(), used.end(), 0);
  for (int w : ind.worker_of_task) {
    if (w >= 0) used[static_cast<size_t>(w)] = 1;
  }
  for (size_t t = 0; t < ind.worker_of_task.size(); ++t) {
    const std::vector<int>& row = table.rows[t];
    if (row.empty() || !rng.Bernoulli(rate)) continue;
    size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(row.size()) - 1));
    int candidate = row[pick];
    if (used[static_cast<size_t>(candidate)]) continue;
    if (ind.worker_of_task[t] >= 0) {
      used[static_cast<size_t>(ind.worker_of_task[t])] = 0;
    }
    ind.worker_of_task[t] = candidate;
    used[static_cast<size_t>(candidate)] = 1;
  }
}

}  // namespace

AssignmentPlan GgpsoAssign(const std::vector<SpatialTask>& tasks,
                           const std::vector<CandidateWorker>& workers,
                           double now_min, const GgpsoConfig& config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& solves_counter = registry.GetCounter("ggpso.solves");
  static obs::Counter& generations_counter =
      registry.GetCounter("ggpso.generations");
  static obs::Histogram& solve_hist =
      registry.GetHistogram("ggpso.solve_s", obs::DurationEdgesSeconds());

  AssignmentPlan plan;
  if (tasks.empty() || workers.empty()) return plan;
  TAMP_CHECK(config.population > 1 && config.generations > 0);

  solves_counter.Increment();
  generations_counter.Increment(config.generations);
  Stopwatch solve_watch;
  obs::TraceSpan solve_span("ggpso.solve");

  const FeasibilityTable table =
      BuildTable(tasks, workers, config.match_radius_km, now_min);
  Rng rng(config.seed);
  const size_t pop_size = static_cast<size_t>(config.population);

  // Double-buffered population: every generation writes its children into
  // `next`'s existing chromosomes and swaps, and one `used` mask serves
  // every operator, so the generation loop allocates nothing.
  std::vector<char> used(workers.size(), 0);
  std::vector<Individual> population(pop_size);
  for (Individual& ind : population) {
    RandomIndividual(table, rng, used, ind);
    ind.fitness = Fitness(ind, table, config.cost_weight);
  }
  Individual best = *std::max_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
      });

  std::vector<Individual> next(pop_size);
  for (int gen = 0; gen < config.generations; ++gen) {
    next[0] = best;  // Elitism.
    for (size_t i = 1; i < pop_size; ++i) {
      // Tournament selection of the parent.
      size_t a = static_cast<size_t>(
          rng.UniformInt(0, config.population - 1));
      size_t b = static_cast<size_t>(
          rng.UniformInt(0, config.population - 1));
      const Individual& parent = population[a].fitness >= population[b].fitness
                                     ? population[a]
                                     : population[b];
      Individual& child = next[i];
      if (rng.Bernoulli(config.crossover_rate)) {
        Crossover(parent, best, 0.5, rng, used, child);
      } else {
        child.worker_of_task = parent.worker_of_task;
      }
      Mutate(child, table, config.mutation_rate, rng, used);
      child.fitness = Fitness(child, table, config.cost_weight);
      if (child.fitness > best.fitness) best = child;
    }
    population.swap(next);
  }

  for (size_t t = 0; t < best.worker_of_task.size(); ++t) {
    int w = best.worker_of_task[t];
    if (w < 0) continue;
    plan.pairs.push_back(
        {static_cast<int>(t), w, table.Edge(t, w).min_dis});
  }
  solve_hist.Record(solve_watch.ElapsedSeconds());
  return plan;
}

}  // namespace tamp::assign
