#pragma once

#include <bit>
#include <cstdint>

namespace tamp::nn::testing {

/// Reference for nn::SigmoidInPlace / nn::TanhInPlace: the kernel's
/// operation chain written once more on plain doubles. It includes nothing
/// from src/: LstmCell::Forward and the batched engine both run the
/// kernel, so comparing them with each other cannot catch a change to the
/// kernel's rounding.
///
/// exp(x) = 2^k·(1 + p) with k = round(x / ln2) (the 1.5·2^52 shifter),
/// r = x − k·ln2_hi − k·ln2_lo, p = r + r²·Q(r) (Q evaluated by Estrin's
/// scheme) and 2^k = s1·s2 built from exponent bits.
struct OracleExpParts {
  double p;
  double s1;
  double s2;
};

inline OracleExpParts OracleExpCore(double x) {
  constexpr double kShifter = 0x1.8p52;
  constexpr uint64_t kScaleBias = std::bit_cast<uint64_t>(kShifter) - 2046;
  // MAXPD/MINPD order: the constant first, so NaN passes through.
  x = -746.0 > x ? -746.0 : x;
  x = 710.0 < x ? 710.0 : x;
  const double t = x * 0x1.71547652b82fep0 + kShifter;
  const double k = t - kShifter;
  const double r = (x - k * 0x1.62e42feep-1) - k * 0x1.a39ef35793c76p-33;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double a0 = 0x1.0000000000001p-1 + 0x1.5555555555558p-3 * r;
  const double a1 = 0x1.5555555553d63p-5 + 0x1.111111110f804p-7 * r;
  const double a2 = 0x1.6c16c1788b962p-10 + 0x1.a01a01b00bcb2p-13 * r;
  const double a3 = 0x1.a019b90e4a475p-16 + 0x1.71ddf6b517cb1p-19 * r;
  const double a4 = 0x1.289183f2df6dcp-22 + 0x1.af63288f27e66p-26 * r;
  const double b0 = a0 + a1 * r2;
  const double b1 = a2 + a3 * r2;
  const double q = b0 + (b1 + a4 * r4) * r4;
  const uint64_t u = std::bit_cast<uint64_t>(t) - kScaleBias;
  const uint64_t e1 = u >> 1;
  return {r + r2 * q, std::bit_cast<double>(e1 << 52),
          std::bit_cast<double>((u - e1) << 52)};
}

inline double OracleExp(double x) {
  const OracleExpParts e = OracleExpCore(x);
  return ((1.0 + e.p) * e.s1) * e.s2;
}

inline double OracleSigmoid(double v) { return 1.0 / (1.0 + OracleExp(-v)); }

inline double OracleTanh(double x) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  double a = std::bit_cast<double>(std::bit_cast<uint64_t>(x) & ~kSignBit);
  a = 22.0 < a ? 22.0 : a;
  const OracleExpParts e = OracleExpCore(a * 2.0);
  const double scale = e.s1 * e.s2;
  const double em1 = scale * e.p + (scale - 1.0);
  const double mag = em1 / (em1 + 2.0);
  return std::bit_cast<double>(std::bit_cast<uint64_t>(mag) |
                               (std::bit_cast<uint64_t>(x) & kSignBit));
}

}  // namespace tamp::nn::testing
