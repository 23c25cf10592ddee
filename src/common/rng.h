#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tamp {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component in the library draws from an
/// explicitly passed Rng so experiments are reproducible given a seed.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value. Inline, with Uniform01 and Bernoulli, because
  /// hot loops (GGPSO's operators) draw one value per gene.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform01() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Poisson-distributed count with the given mean (Knuth for small lambda,
  /// normal approximation for large lambda).
  int Poisson(double lambda);

  /// Exponential inter-arrival time with the given rate (> 0).
  double Exponential(double rate);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) { return Uniform01() < p; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Non-positive weights are treated as zero; if all weights are zero the
  /// result is uniform.
  size_t SampleIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap(items[i], items[j]);
    }
  }

  /// Draws `count` distinct indices from [0, n). Requires count <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t count);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace tamp
