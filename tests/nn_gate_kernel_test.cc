// Parity of nn::GatePreactivations against the serial scalar chain kept in
// nn_gate_oracle.h, on every 4H mod 8 tail, unaligned buffers, and inputs
// that mix random values with signed zeros, subnormals, infinities, NaNs
// and magnitudes near overflow. Every finite or infinite output must match
// bit for bit; a NaN output only has to be NaN on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/lstm_cell.h"
#include "nn_gate_oracle.h"

namespace tamp::nn {
namespace {

/// Draws one kernel input. `special` is the chance of replacing the random
/// value by one of the edge values below.
double Draw(Rng& rng, double special) {
  static const double kEdges[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -4.9e-310,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      1e300,
      -3.7e299,
      std::numeric_limits<double>::max(),
  };
  constexpr int64_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
  if (rng.Bernoulli(special)) return kEdges[rng.UniformInt(0, kNumEdges - 1)];
  return rng.Uniform(-2.0, 2.0);
}

/// Runs kernel and oracle on one random instance and returns the number of
/// mismatching outputs. `misalign` shifts every buffer by one double so the
/// SSE2 loads and stores see 8-byte-aligned addresses.
int CountMismatches(Rng& rng, size_t id, size_t hd, double special,
                    size_t misalign, int* nan_outputs) {
  const size_t h4 = 4 * hd;
  auto fill = [&](size_t n) {
    std::vector<double> v(n + misalign);
    for (double& e : v) e = Draw(rng, special);
    return v;
  };
  const std::vector<double> wx = fill(h4 * id);
  const std::vector<double> wh = fill(h4 * hd);
  const std::vector<double> b = fill(h4);
  const std::vector<double> x = fill(id);
  const std::vector<double> h = fill(hd);
  std::vector<double> got(h4 + misalign, 7.0);
  std::vector<double> want(h4, -7.0);
  GatePreactivations(wx.data() + misalign, wh.data() + misalign,
                     b.data() + misalign, x.data() + misalign,
                     h.data() + misalign, id, hd, got.data() + misalign);
  testing::ScalarGatePreactivations(wx.data() + misalign,
                                    wh.data() + misalign, b.data() + misalign,
                                    x.data() + misalign, h.data() + misalign,
                                    id, hd, want.data());
  int mismatches = 0;
  for (size_t r = 0; r < h4; ++r) {
    const double g = got[misalign + r];
    const double w = want[r];
    if (std::isnan(w)) {
      ++*nan_outputs;
      if (!std::isnan(g)) ++mismatches;
    } else if (std::memcmp(&g, &w, sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(GatePreactivationsTest, BitwiseEqualToScalarChainOnEveryShape) {
  Rng rng(20261017);
  int nan_outputs = 0;
  int cases = 0;
  for (size_t id : {1, 2, 3}) {
    for (size_t hd : {1, 2, 3, 7, 8, 9, 16, 17, 33}) {
      for (double special : {0.0, 0.02, 0.2}) {
        for (size_t misalign : {0, 1}) {
          for (int trial = 0; trial < 8; ++trial) {
            ++cases;
            EXPECT_EQ(CountMismatches(rng, id, hd, special, misalign,
                                      &nan_outputs),
                      0)
                << "id=" << id << " hd=" << hd << " special=" << special
                << " misalign=" << misalign << " trial=" << trial;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 9 * 3 * 2 * 8);
  // The edge-value draws must actually reach non-finite outputs.
  EXPECT_GT(nan_outputs, 0);
}

TEST(GatePreactivationsTest, SignedZeroAndSubnormalSumsKeepTheirBits) {
  // All-zero weights over a -0 bias: -0 + (+0 * x) is +0 in IEEE, and a
  // reordered or fused chain could leave -0. Subnormal products must not
  // be flushed. Both hold on every row, SIMD block and tail alike.
  for (size_t hd : {1, 2, 3, 8, 9}) {
    const size_t id = 2;
    const size_t h4 = 4 * hd;
    std::vector<double> wx(h4 * id, 0.0), wh(h4 * hd, 0.0), b(h4, -0.0);
    std::vector<double> x(id, 1.0), h(hd, 1.0);
    std::vector<double> got(h4), want(h4);
    GatePreactivations(wx.data(), wh.data(), b.data(), x.data(), h.data(), id,
                       hd, got.data());
    testing::ScalarGatePreactivations(wx.data(), wh.data(), b.data(),
                                      x.data(), h.data(), id, hd,
                                      want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), h4 * sizeof(double)), 0)
        << "hd=" << hd;

    const double tiny = std::numeric_limits<double>::denorm_min();
    std::fill(b.begin(), b.end(), -0.0);
    std::fill(wh.begin(), wh.end(), tiny);
    GatePreactivations(wx.data(), wh.data(), b.data(), x.data(), h.data(), id,
                       hd, got.data());
    for (size_t r = 0; r < h4; ++r) {
      EXPECT_EQ(got[r], static_cast<double>(hd) * tiny) << "hd=" << hd;
    }
  }
}

}  // namespace
}  // namespace tamp::nn
