#include "stats.h"

#include <algorithm>

namespace perfbench {

Quartiles QuartilesOf(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive": m = n + 1 and cut i sits at
  // 1-based position i * m / 4, clamped to [1, n - 1], interpolated in
  // exact integer quarters.
  const long m = n + 1;
  double cuts[3];
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                  4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::optional<Tail> TailPercentile(std::vector<double> values,
                                   size_t min_beyond) {
  // Per-mille ladder, so the nearest rank ceil(p * n / 1000) is exact
  // integer arithmetic.
  static constexpr size_t kLadder[] = {999, 990, 950, 900, 750, 500};
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (size_t per_mille : kLadder) {
    const size_t rank = (per_mille * n + 999) / 1000;
    if (rank == 0) continue;
    const size_t beyond = n - rank;
    if (beyond >= min_beyond) {
      return Tail{static_cast<double>(per_mille) / 10.0, values[rank - 1],
                  beyond};
    }
  }
  return std::nullopt;
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.samples = values.size();
  if (values.empty()) return summary;
  summary.quartiles = QuartilesOf(values);
  summary.tail = TailPercentile(values);
  return summary;
}

}  // namespace perfbench
