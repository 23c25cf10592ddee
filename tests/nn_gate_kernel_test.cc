// Parity of nn::GatePreactivations (row-major, training) and
// nn::GatePreactivationsKMajor (k-major, the forecast) against the serial
// scalar chains kept in nn_gate_oracle.h, on every 4H mod 8 and mod 16
// tail, general row counts, unaligned buffers, and inputs
// that mix random values with signed zeros, subnormals, infinities, NaNs
// and magnitudes near overflow. Every finite or infinite output must match
// bit for bit; a NaN output only has to be NaN on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
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

/// Which kernel a parity case runs.
enum class Layout { kRowMajor, kKMajor };

/// [W_x^T ; W_h^T] ([(id + hd) x 4hd]) after `misalign` leading doubles,
/// the layout nn::PackedSeq2Seq packs.
std::vector<double> PackKMajor(const double* wx, const double* wh, size_t id,
                               size_t hd, size_t misalign) {
  const size_t h4 = 4 * hd;
  std::vector<double> wt(misalign + (id + hd) * h4);
  for (size_t r = 0; r < h4; ++r) {
    for (size_t k = 0; k < id; ++k) wt[misalign + k * h4 + r] = wx[r * id + k];
    for (size_t k = 0; k < hd; ++k) {
      wt[misalign + (id + k) * h4 + r] = wh[r * hd + k];
    }
  }
  return wt;
}

/// Runs `layout`'s kernel on the row-major operands of the oracle.
void RunKernel(Layout layout, const double* wx, const double* wh,
               const double* b, const double* x, const double* h, size_t id,
               size_t hd, size_t misalign, double* z) {
  if (layout == Layout::kRowMajor) {
    GatePreactivations(wx, wh, b, x, h, id, hd, z);
    return;
  }
  const std::vector<double> wt = PackKMajor(wx, wh, id, hd, misalign);
  std::vector<double> v(misalign + id + hd);
  std::copy(x, x + id, v.begin() + static_cast<std::ptrdiff_t>(misalign));
  std::copy(h, h + hd,
            v.begin() + static_cast<std::ptrdiff_t>(misalign + id));
  GatePreactivationsKMajor(wt.data() + misalign, b, v.data() + misalign,
                           id + hd, 4 * hd, z);
}

/// Runs kernel and oracle on one random instance and returns the number of
/// mismatching outputs. `misalign` shifts every buffer by one double so the
/// SSE2 loads and stores see 8-byte-aligned addresses.
int CountMismatches(Layout layout, Rng& rng, size_t id, size_t hd,
                    double special, size_t misalign, int* nan_outputs) {
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
  RunKernel(layout, wx.data() + misalign, wh.data() + misalign,
            b.data() + misalign, x.data() + misalign, h.data() + misalign, id,
            hd, misalign, got.data() + misalign);
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

/// Every (id, hd) shape: 4H mod 16 covers 0, 4, 8 and 12, so the k-major
/// kernel's 16-, 8- and 2-row blocks all run.
void ExpectBitwiseOnEveryShape(Layout layout) {
  Rng rng(20261017);
  int nan_outputs = 0;
  int cases = 0;
  for (size_t id : {1, 2, 3}) {
    for (size_t hd : {1, 2, 3, 4, 7, 8, 9, 16, 17, 33}) {
      for (double special : {0.0, 0.02, 0.2}) {
        for (size_t misalign : {0, 1}) {
          for (int trial = 0; trial < 8; ++trial) {
            ++cases;
            EXPECT_EQ(CountMismatches(layout, rng, id, hd, special, misalign,
                                      &nan_outputs),
                      0)
                << "id=" << id << " hd=" << hd << " special=" << special
                << " misalign=" << misalign << " trial=" << trial;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 10 * 3 * 2 * 8);
  // The edge-value draws must actually reach non-finite outputs.
  EXPECT_GT(nan_outputs, 0);
}

TEST(GatePreactivationsTest, BitwiseEqualToScalarChainOnEveryShape) {
  ExpectBitwiseOnEveryShape(Layout::kRowMajor);
}

TEST(GatePreactivationsKMajorTest, BitwiseEqualToScalarChainOnEveryShape) {
  ExpectBitwiseOnEveryShape(Layout::kKMajor);
}

/// All-zero weights over a -0 bias: -0 + (+0 * x) is +0 in IEEE, and a
/// reordered or fused chain could leave -0. Subnormal products must not be
/// flushed. Both hold on every row, SIMD block and tail alike.
void ExpectSignedZeroAndSubnormalBits(Layout layout) {
  for (size_t hd : {1, 2, 3, 4, 8, 9}) {
    const size_t id = 2;
    const size_t h4 = 4 * hd;
    std::vector<double> wx(h4 * id, 0.0), wh(h4 * hd, 0.0), b(h4, -0.0);
    std::vector<double> x(id, 1.0), h(hd, 1.0);
    std::vector<double> got(h4), want(h4);
    RunKernel(layout, wx.data(), wh.data(), b.data(), x.data(), h.data(), id,
              hd, 0, got.data());
    testing::ScalarGatePreactivations(wx.data(), wh.data(), b.data(),
                                      x.data(), h.data(), id, hd,
                                      want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), h4 * sizeof(double)), 0)
        << "hd=" << hd;

    const double tiny = std::numeric_limits<double>::denorm_min();
    std::fill(b.begin(), b.end(), -0.0);
    std::fill(wh.begin(), wh.end(), tiny);
    RunKernel(layout, wx.data(), wh.data(), b.data(), x.data(), h.data(), id,
              hd, 0, got.data());
    for (size_t r = 0; r < h4; ++r) {
      EXPECT_EQ(got[r], static_cast<double>(hd) * tiny) << "hd=" << hd;
    }
  }
}

TEST(GatePreactivationsTest, SignedZeroAndSubnormalSumsKeepTheirBits) {
  ExpectSignedZeroAndSubnormalBits(Layout::kRowMajor);
}

TEST(GatePreactivationsKMajorTest, SignedZeroAndSubnormalSumsKeepTheirBits) {
  ExpectSignedZeroAndSubnormalBits(Layout::kKMajor);
}

TEST(GatePreactivationsKMajorTest, GeneralRowCountsMatchTheDenseChain) {
  // The readout runs the kernel at rows = output_dim, so every row count
  // must work, not only multiples of four: odd rows exercise the scalar
  // tail after the 16-, 8- and 2-row blocks.
  Rng rng(20261021);
  for (size_t rows : {1, 2, 3, 5, 7, 8, 15, 17, 31, 64}) {
    for (size_t k_dim : {1, 16, 19}) {
      for (size_t misalign : {0, 1}) {
        auto fill = [&](size_t n) {
          std::vector<double> v(n + misalign);
          for (double& e : v) e = Draw(rng, 0.05);
          return v;
        };
        const std::vector<double> w = fill(rows * k_dim);
        const std::vector<double> b = fill(rows);
        const std::vector<double> v = fill(k_dim);
        std::vector<double> wt(misalign + rows * k_dim);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t k = 0; k < k_dim; ++k) {
            wt[misalign + k * rows + r] = w[misalign + r * k_dim + k];
          }
        }
        std::vector<double> got(misalign + rows), want(rows);
        GatePreactivationsKMajor(wt.data() + misalign, b.data() + misalign,
                                 v.data() + misalign, k_dim, rows,
                                 got.data() + misalign);
        testing::ScalarDenseChain(w.data() + misalign, b.data() + misalign,
                                  v.data() + misalign, k_dim, rows,
                                  want.data());
        for (size_t r = 0; r < rows; ++r) {
          const double g = got[misalign + r];
          if (std::isnan(want[r])) {
            EXPECT_TRUE(std::isnan(g)) << "rows=" << rows << " r=" << r;
          } else {
            EXPECT_EQ(std::memcmp(&g, &want[r], sizeof(double)), 0)
                << "rows=" << rows << " k_dim=" << k_dim << " r=" << r;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tamp::nn
