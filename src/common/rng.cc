#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace tamp {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform01();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TAMP_CHECK(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // Full 64-bit range.
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1, u2;
  do {
    u1 = Uniform01();
  } while (u1 <= 1e-300);
  u2 = Uniform01();
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_normal_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int Rng::Poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 64.0) {
    // Normal approximation with continuity correction.
    double v = Normal(lambda, std::sqrt(lambda));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  double limit = std::exp(-lambda);
  double prod = Uniform01();
  int n = 0;
  while (prod > limit) {
    ++n;
    prod *= Uniform01();
  }
  return n;
}

double Rng::Exponential(double rate) {
  TAMP_CHECK(rate > 0.0);
  double u;
  do {
    u = Uniform01();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

size_t Rng::SampleIndex(const std::vector<double>& weights) {
  TAMP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) {
    return static_cast<size_t>(
        UniformInt(0, static_cast<int64_t>(weights.size()) - 1));
  }
  double r = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0.0 ? weights[i] : 0.0);
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t count) {
  TAMP_CHECK(count <= n);
  std::vector<size_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher-Yates: the first `count` entries become the sample.
  for (size_t i = 0; i < count; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace tamp
