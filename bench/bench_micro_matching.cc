// Micro-benchmarks of the Kuhn-Munkres matcher: the inner loop every
// assignment algorithm (and every PPI stage) calls.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "matching/hungarian.h"

namespace {

std::vector<tamp::matching::Edge> RandomEdges(int num_left, int num_right,
                                              double density, uint64_t seed) {
  tamp::Rng rng(seed);
  std::vector<tamp::matching::Edge> edges;
  for (int l = 0; l < num_left; ++l) {
    for (int r = 0; r < num_right; ++r) {
      if (rng.Bernoulli(density)) {
        edges.push_back({l, r, rng.Uniform(0.1, 10.0)});
      }
    }
  }
  return edges;
}

void BM_MaxWeightMatching(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomEdges(n, n, 0.2, 42);
  for (auto _ : state) {
    auto result = tamp::matching::MaxWeightMatching(n, n, edges);
    benchmark::DoNotOptimize(result.total_weight);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MaxWeightMatching)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity(benchmark::oNCubed);

// Lopsided batches: the tasks >> workers shape of a surge pool (and its
// transpose), solved on the min x max matrix instead of a max^2 padding.
void BM_MaxWeightMatchingRect(benchmark::State& state) {
  const int num_left = static_cast<int>(state.range(0));
  const int num_right = static_cast<int>(state.range(1));
  auto edges = RandomEdges(num_left, num_right, 0.2, 42);
  for (auto _ : state) {
    auto result =
        tamp::matching::MaxWeightMatching(num_left, num_right, edges);
    benchmark::DoNotOptimize(result.total_weight);
  }
}
BENCHMARK(BM_MaxWeightMatchingRect)
    ->Args({500, 10})
    ->Args({10, 500})
    ->Args({200, 40});

void BM_MinCostAssignmentDense(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  tamp::Rng rng(7);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.Uniform(0.0, 100.0);
  }
  for (auto _ : state) {
    auto result = tamp::matching::MinCostAssignment(cost);
    benchmark::DoNotOptimize(result.total_cost);
  }
}
BENCHMARK(BM_MinCostAssignmentDense)->RangeMultiplier(2)->Range(16, 128);

}  // namespace

#include "micro_main.h"

namespace tamp::bench {

// Timing-only target: no deterministic accounting metrics to gate on.
void RegisterMicroMetrics(JsonReport&) {}

}  // namespace tamp::bench
