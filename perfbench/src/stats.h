#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (its default "exclusive" method), so the benchmark's own
/// spread figures match the ones computed over its printed results.
/// Needs at least two samples; one sample yields {v, v, v}.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Median of the samples (mean of the middle pair for even counts).
/// Requires a non-empty input.
double Median(std::vector<double> values);

/// A nearest-rank percentile together with how many samples lie beyond it.
struct Tail {
  double percentile = 0.0;  // e.g. 90 for p90.
  double value = 0.0;
  size_t beyond = 0;        // Samples ranked above the percentile's rank.
};

/// The highest percentile of the ladder p50, p75, p90, p95, p99, p99.9
/// that still has at least `min_beyond` samples ranked above it (nearest
/// rank: p's sample is the ceil(p/100 * n)-th smallest). Empty when even
/// p50 has fewer than `min_beyond` samples beyond it, i.e. n < 20 for the
/// default of ten.
std::optional<Tail> TailPercentile(std::vector<double> values,
                                   size_t min_beyond = 10);

/// Everything the report prints for one timing: sample count, median,
/// quartiles and the tail percentile (when the count supports one).
struct Summary {
  size_t samples = 0;
  Quartiles quartiles;
  std::optional<Tail> tail;
};
Summary Summarize(const std::vector<double>& values);

}  // namespace perfbench
