#include "nn/activation.h"

#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tamp::nn {
namespace {

// Cody–Waite split of ln 2 (fdlibm's): kLn2Hi has 32 significant bits, so
// k·kLn2Hi is exact for every k the clamp below admits, and so is
// x − k·kLn2Hi.
constexpr double kInvLn2 = 0x1.71547652b82fep0;
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// Adding 1.5·2^52 rounds x/ln2 to the nearest integer k (ties to even) and
// leaves k in the low mantissa bits. Subtracting kScaleBias from those bits
// gives u = k + 2046, which is non-negative for every clamped x, so floor(k/2)
// + 1023 is a logical shift of u.
constexpr double kShifter = 0x1.8p52;
constexpr uint64_t kScaleBias = std::bit_cast<uint64_t>(kShifter) - 2046;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// exp underflows to 0 below −745.14 and overflows above 709.79; clamping
// outside that keeps k within one double's exponent range twice over.
constexpr double kExpMin = -746.0;
constexpr double kExpMax = 710.0;
// tanh(x) rounds to ±1 for |x| > 19.1, and expm1(44) is still finite.
constexpr double kTanhClamp = 22.0;

// expm1(r) = r + r²·Q(r) on |r| ≤ ln2/2, Q the degree-9 minimax fit of
// (e^r − 1 − r)/r² (max error 1.0e-16).
constexpr double kC2 = 0x1.0000000000001p-1;
constexpr double kC3 = 0x1.5555555555558p-3;
constexpr double kC4 = 0x1.5555555553d63p-5;
constexpr double kC5 = 0x1.111111110f804p-7;
constexpr double kC6 = 0x1.6c16c1788b962p-10;
constexpr double kC7 = 0x1.a01a01b00bcb2p-13;
constexpr double kC8 = 0x1.a019b90e4a475p-16;
constexpr double kC9 = 0x1.71ddf6b517cb1p-19;
constexpr double kC10 = 0x1.289183f2df6dcp-22;
constexpr double kC11 = 0x1.af63288f27e66p-26;

// The scalar lane: the element operations on one double.

/// MINPD's rule, a < b ? a : b: NaN in either operand returns b.
double Min(double a, double b) { return a < b ? a : b; }
/// MAXPD's rule, a > b ? a : b: NaN in either operand returns b.
double Max(double a, double b) { return a > b ? a : b; }
double Neg(double a) { return -a; }
double Abs(double a) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(a) & ~kSignBit);
}
/// `mag` (sign bit clear) with the sign bit of `sign`.
double WithSignOf(double mag, double sign) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(mag) |
                               (std::bit_cast<uint64_t>(sign) & kSignBit));
}
/// 2^floor(k/2) and 2^ceil(k/2) from the shifted t = x/ln2 + kShifter.
void ScaleFactors(double t, double* s1, double* s2) {
  const uint64_t u = std::bit_cast<uint64_t>(t) - kScaleBias;
  const uint64_t e1 = u >> 1;
  *s1 = std::bit_cast<double>(e1 << 52);
  *s2 = std::bit_cast<double>((u - e1) << 52);
}

#if defined(__SSE2__)
/// Two doubles in one SSE2 register. Every operation is the scalar lane's,
/// lane by lane, so a template written against these runs the same chain
/// on a pair as on one double.
struct F64x2 {
  __m128d v;
  explicit F64x2(__m128d x) : v(x) {}
  explicit F64x2(double c) : v(_mm_set1_pd(c)) {}
};
F64x2 operator+(F64x2 a, F64x2 b) { return F64x2(_mm_add_pd(a.v, b.v)); }
F64x2 operator-(F64x2 a, F64x2 b) { return F64x2(_mm_sub_pd(a.v, b.v)); }
F64x2 operator*(F64x2 a, F64x2 b) { return F64x2(_mm_mul_pd(a.v, b.v)); }
F64x2 operator/(F64x2 a, F64x2 b) { return F64x2(_mm_div_pd(a.v, b.v)); }
F64x2 Min(F64x2 a, F64x2 b) { return F64x2(_mm_min_pd(a.v, b.v)); }
F64x2 Max(F64x2 a, F64x2 b) { return F64x2(_mm_max_pd(a.v, b.v)); }
__m128d SignMask() { return _mm_castsi128_pd(_mm_set1_epi64x(INT64_MIN)); }
F64x2 Neg(F64x2 a) { return F64x2(_mm_xor_pd(a.v, SignMask())); }
F64x2 Abs(F64x2 a) { return F64x2(_mm_andnot_pd(SignMask(), a.v)); }
F64x2 WithSignOf(F64x2 mag, F64x2 sign) {
  return F64x2(_mm_or_pd(mag.v, _mm_and_pd(sign.v, SignMask())));
}
void ScaleFactors(F64x2 t, F64x2* s1, F64x2* s2) {
  const __m128i u =
      _mm_sub_epi64(_mm_castpd_si128(t.v),
                    _mm_set1_epi64x(static_cast<int64_t>(kScaleBias)));
  const __m128i e1 = _mm_srli_epi64(u, 1);
  *s1 = F64x2(_mm_castsi128_pd(_mm_slli_epi64(e1, 52)));
  *s2 = F64x2(_mm_castsi128_pd(_mm_slli_epi64(_mm_sub_epi64(u, e1), 52)));
}
#endif

/// exp(x) = 2^k·(1 + p) = s1·s2·(1 + p), with p = expm1(r).
template <class V>
struct ExpParts {
  V p;
  V s1;
  V s2;
};

// The chains are forced inline: called out of line, each element pair
// would pass ExpParts through memory and re-broadcast every constant.
template <class V>
[[gnu::always_inline]] inline ExpParts<V> ExpCore(V x) {
  // The clamp's constant is the first operand, so a NaN x passes through.
  x = Min(V(kExpMax), Max(V(kExpMin), x));
  const V t = x * V(kInvLn2) + V(kShifter);
  const V k = t - V(kShifter);
  const V r = (x - k * V(kLn2Hi)) - k * V(kLn2Lo);
  // Estrin's scheme: five independent pairs, then two levels of r², r⁴.
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V a0 = V(kC2) + V(kC3) * r;
  const V a1 = V(kC4) + V(kC5) * r;
  const V a2 = V(kC6) + V(kC7) * r;
  const V a3 = V(kC8) + V(kC9) * r;
  const V a4 = V(kC10) + V(kC11) * r;
  const V b0 = a0 + a1 * r2;
  const V b1 = a2 + a3 * r2;
  const V q = b0 + (b1 + a4 * r4) * r4;
  ExpParts<V> parts{r + r2 * q, V(0.0), V(0.0)};
  ScaleFactors(t, &parts.s1, &parts.s2);
  return parts;
}

template <class V>
[[gnu::always_inline]] inline V Sigmoid(V v) {
  const ExpParts<V> e = ExpCore(Neg(v));
  // (1 + p)·s1 is exact; the second factor rounds once, subnormal or not.
  const V exp_neg_v = ((V(1.0) + e.p) * e.s1) * e.s2;
  return V(1.0) / (V(1.0) + exp_neg_v);
}

template <class V>
[[gnu::always_inline]] inline V Tanh(V x) {
  const ExpParts<V> e = ExpCore(Min(V(kTanhClamp), Abs(x)) * V(2.0));
  // expm1 = 2^k·p + (2^k − 1): the product is exact, so is 2^k − 1 up to
  // k = 53 (past it tanh rounds to 1 anyway), and for k = 0 the sum is p
  // itself, whose relative error does not grow as x → 0.
  const V scale = e.s1 * e.s2;
  const V em1 = scale * e.p + (scale - V(1.0));
  return WithSignOf(em1 / (em1 + V(2.0)), x);
}

/// Applies `f` element-wise: four elements per iteration as two independent
/// register pairs, then one pair, then the scalar tail.
template <class F>
void ApplyInPlace(double* v, size_t n, F f) {
  size_t j = 0;
#if defined(__SSE2__)
  for (; j + 4 <= n; j += 4) {
    const F64x2 lo = f(F64x2(_mm_loadu_pd(v + j)));
    const F64x2 hi = f(F64x2(_mm_loadu_pd(v + j + 2)));
    _mm_storeu_pd(v + j, lo.v);
    _mm_storeu_pd(v + j + 2, hi.v);
  }
  if (j + 2 <= n) {
    _mm_storeu_pd(v + j, f(F64x2(_mm_loadu_pd(v + j))).v);
    j += 2;
  }
#endif
  for (; j < n; ++j) v[j] = f(v[j]);
}

}  // namespace

void SigmoidInPlace(double* v, size_t n) {
  ApplyInPlace(v, n, [](auto x) { return Sigmoid(x); });
}

void TanhInPlace(double* v, size_t n) {
  ApplyInPlace(v, n, [](auto x) { return Tanh(x); });
}

}  // namespace tamp::nn
