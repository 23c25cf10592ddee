// The repository's sigmoid/tanh kernel (nn/activation.h): bitwise parity
// with the scalar copy in nn_activation_oracle.h at every length 0–9 on
// aligned and misaligned buffers (so every element is seen in an SSE2 lane
// and in the scalar tail), error bounds against libm over the whole finite
// range, and the edge values — signed zeros, subnormals, infinities, NaN
// and the exp overflow/underflow edges.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn_activation_oracle.h"

namespace tamp::nn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

/// Draws one kernel input: an edge value with probability `special`, else
/// a uniform draw over exp's finite range or the dense gate range.
double Draw(Rng& rng, double special) {
  static const double kEdges[] = {
      0.0,   -0.0,     kDenormMin, -4.9e-310, 2.2e-308, kInf,   -kInf,
      kNaN,  -kNaN,    709.78,     709.79,    -745.13,  -745.14, 22.0,
      -19.1, 1e300,    -1e300,     std::numeric_limits<double>::max(),
  };
  constexpr int64_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
  if (rng.Bernoulli(special)) return kEdges[rng.UniformInt(0, kNumEdges - 1)];
  return rng.Bernoulli(0.5) ? rng.Uniform(-745.0, 710.0)
                            : rng.Uniform(-8.0, 8.0);
}

/// Equal bits, or NaN on both sides (any payload, any sign).
bool SameResult(double got, double want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::memcmp(&got, &want, sizeof(double)) == 0;
}

/// Distance in representable doubles; 0 for two NaNs.
uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  auto ordered = [](double x) {
    const int64_t bits = std::bit_cast<int64_t>(x);
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t oa = ordered(a);
  const int64_t ob = ordered(b);
  return oa > ob ? static_cast<uint64_t>(oa) - static_cast<uint64_t>(ob)
                 : static_cast<uint64_t>(ob) - static_cast<uint64_t>(oa);
}

double LibmSigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

/// Inputs for the bound tests: uniform over [−745, 710], dense over
/// [−8, 8], and log-uniform magnitudes down to the subnormals.
std::vector<double> BoundInputs() {
  Rng rng(20251018);
  std::vector<double> v;
  for (int j = 0; j < 400000; ++j) v.push_back(rng.Uniform(-745.0, 710.0));
  for (int j = 0; j < 400000; ++j) v.push_back(rng.Uniform(-8.0, 8.0));
  for (int j = 0; j < 100000; ++j) {
    const double mag = std::exp2(rng.Uniform(-1070.0, 3.0));
    v.push_back(rng.Bernoulli(0.5) ? mag : -mag);
  }
  return v;
}

TEST(ActivationKernelTest, MatchesOracleAtEveryLengthAndAlignment) {
  Rng rng(11);
  int checked = 0;
  int nans = 0;
  for (size_t misalign : {0, 1}) {
    for (size_t n = 0; n <= 9; ++n) {
      for (int trial = 0; trial < 200; ++trial) {
        // Sentinels on both sides of the n live elements, which start
        // 16-byte aligned or one double past it.
        constexpr size_t kLen = 13;
        const size_t first = 2 + misalign;
        alignas(16) double sig[kLen];
        alignas(16) double tnh[kLen];
        double in[kLen];
        for (double& e : in) e = Draw(rng, 0.3);
        std::memcpy(sig, in, sizeof(in));
        std::memcpy(tnh, in, sizeof(in));
        ASSERT_EQ(reinterpret_cast<uintptr_t>(sig + first) % 16,
                  8 * misalign);
        SigmoidInPlace(sig + first, n);
        TanhInPlace(tnh + first, n);
        for (size_t j = 0; j < kLen; ++j) {
          const size_t live = j - first;  // Wraps below `first`.
          if (live >= n) {
            EXPECT_TRUE(SameResult(sig[j], in[j])) << "sigmoid wrote " << j;
            EXPECT_TRUE(SameResult(tnh[j], in[j])) << "tanh wrote " << j;
            continue;
          }
          const double x = in[j];
          nans += std::isnan(x) ? 1 : 0;
          EXPECT_TRUE(SameResult(sig[j], testing::OracleSigmoid(x)))
              << "sigmoid(" << x << ") n=" << n << " at " << live;
          EXPECT_TRUE(SameResult(tnh[j], testing::OracleTanh(x)))
              << "tanh(" << x << ") n=" << n << " at " << live;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 15000);
  EXPECT_GT(nans, 100);  // NaN reached both the lanes and the tail.
}

TEST(ActivationKernelTest, MatchesOracleOnDenseDraws) {
  Rng rng(13);
  std::vector<double> in(100003);
  for (double& e : in) e = Draw(rng, 0.01);
  std::vector<double> sig = in;
  std::vector<double> tnh = in;
  SigmoidInPlace(sig.data(), sig.size());
  TanhInPlace(tnh.data(), tnh.size());
  int mismatches = 0;
  for (size_t j = 0; j < in.size(); ++j) {
    if (!SameResult(sig[j], testing::OracleSigmoid(in[j]))) ++mismatches;
    if (!SameResult(tnh[j], testing::OracleTanh(in[j]))) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ActivationKernelTest, ExpCoreWithinThreeUlpOfLibm) {
  uint64_t worst = 0;
  double worst_x = 0.0;
  for (double x : BoundInputs()) {
    const uint64_t d = UlpDistance(testing::OracleExp(x), std::exp(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 3u) << "at x = " << worst_x;
}

TEST(ActivationKernelTest, SigmoidWithinAbsoluteBoundOfLibm) {
  std::vector<double> in = BoundInputs();
  std::vector<double> got = in;
  SigmoidInPlace(got.data(), got.size());
  double worst = 0.0;
  double worst_x = 0.0;
  for (size_t j = 0; j < in.size(); ++j) {
    const double err = std::fabs(got[j] - LibmSigmoid(in[j]));
    if (err > worst) {
      worst = err;
      worst_x = in[j];
    }
  }
  EXPECT_LE(worst, 4.5e-16) << "at v = " << worst_x;
}

TEST(ActivationKernelTest, TanhWithinEightUlpOfLibm) {
  std::vector<double> in = BoundInputs();
  std::vector<double> got = in;
  TanhInPlace(got.data(), got.size());
  uint64_t worst = 0;
  double worst_x = 0.0;
  for (size_t j = 0; j < in.size(); ++j) {
    const uint64_t d = UlpDistance(got[j], std::tanh(in[j]));
    if (d > worst) {
      worst = d;
      worst_x = in[j];
    }
  }
  EXPECT_LE(worst, 8u) << "at x = " << worst_x;
}

/// Runs both kernels on {x, x, x}: one SSE2 pair and one tail element.
struct Activated {
  double sigmoid[3];
  double tanh[3];
};
Activated Activate(double x) {
  Activated a{{x, x, x}, {x, x, x}};
  SigmoidInPlace(a.sigmoid, 3);
  TanhInPlace(a.tanh, 3);
  return a;
}

TEST(ActivationKernelTest, SignedZerosAndSubnormals) {
  for (double x : {0.0, -0.0, kDenormMin, -kDenormMin, 4.9e-310, -2.0e-308}) {
    const Activated a = Activate(x);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(a.sigmoid[j], 0.5) << x;
      // tanh(x) = x exactly: the sign of zero and every subnormal survive.
      EXPECT_TRUE(SameResult(a.tanh[j], x)) << x;
    }
  }
  EXPECT_TRUE(std::signbit(Activate(-0.0).tanh[2]));
  EXPECT_FALSE(std::signbit(Activate(0.0).tanh[2]));
}

TEST(ActivationKernelTest, InfinitiesSaturate) {
  const Activated pos = Activate(kInf);
  const Activated neg = Activate(-kInf);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(pos.sigmoid[j], 1.0);
    EXPECT_EQ(neg.sigmoid[j], 0.0);
    EXPECT_EQ(pos.tanh[j], 1.0);
    EXPECT_EQ(neg.tanh[j], -1.0);
  }
  EXPECT_EQ(Activate(30.0).tanh[0], 1.0);
  EXPECT_EQ(Activate(-1e300).tanh[2], -1.0);
}

TEST(ActivationKernelTest, NaNInNaNOut) {
  // A clamp written with its operands swapped (min(x, 22) instead of
  // min(22, x) in MINPD's rule) maps NaN to a finite value; this catches
  // it in the SSE2 pair and in the tail.
  for (double x : {kNaN, -kNaN}) {
    const Activated a = Activate(x);
    for (int j = 0; j < 3; ++j) {
      EXPECT_TRUE(std::isnan(a.sigmoid[j])) << j;
      EXPECT_TRUE(std::isnan(a.tanh[j])) << j;
    }
    EXPECT_TRUE(std::isnan(testing::OracleExp(x)));
  }
}

TEST(ActivationKernelTest, ExpOverflowAndUnderflowEdges) {
  // exp overflows just above ln(DBL_MAX) = 709.7827 and underflows below
  // ln(denorm_min / 2) = −745.1332.
  for (double x : {709.78, 709.0, -708.5, -740.0, -745.13}) {
    EXPECT_LE(UlpDistance(testing::OracleExp(x), std::exp(x)), 3u) << x;
  }
  EXPECT_TRUE(std::isfinite(testing::OracleExp(709.78)));
  EXPECT_EQ(testing::OracleExp(709.79), kInf);
  EXPECT_EQ(testing::OracleExp(-745.13), kDenormMin);
  EXPECT_EQ(testing::OracleExp(-745.14), 0.0);

  // The same edges through the kernel's sigmoid, as exp(−v).
  const Activated tiny = Activate(-709.78);
  EXPECT_GT(tiny.sigmoid[0], 0.0);
  EXPECT_LE(std::fabs(tiny.sigmoid[2] - LibmSigmoid(-709.78)), 4.5e-16);
  EXPECT_EQ(Activate(-709.79).sigmoid[2], 0.0);
  EXPECT_EQ(Activate(745.13).sigmoid[0], 1.0);
  EXPECT_EQ(Activate(745.14).sigmoid[2], 1.0);
}

}  // namespace
}  // namespace tamp::nn
