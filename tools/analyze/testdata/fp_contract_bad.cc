// analyze:path=src/nn/fp_contract_bad.cc
// Seeded violations: every construct here can fuse a multiply and an add
// into one rounding, which breaks bitwise parity with the scalar oracles.

#include <cmath>
#include <immintrin.h>

#pragma STDC FP_CONTRACT ON  // violation
#pragma GCC optimize("O3,fast-math")  // violation

namespace tamp_testdata {

double FusedStd(double a, double b, double c) {
  return std::fma(a, b, c);  // violation
}

double FusedC(double a, double b, double c) {
  return fma(a, b, c);  // violation
}

__m256d FusedLanes(__m256d a, __m256d b, __m256d c) {
  return _mm256_fmadd_pd(a, b, c);  // violation
}

__m128d FusedNegated(__m128d a, __m128d b, __m128d c) {
  return _mm_fnmadd_pd(a, b, c);  // violation
}

__m128d FusedSub(__m128d a, __m128d b, __m128d c) {
  return _mm_fmsub_pd(a, b, c);  // violation
}

__attribute__((target("fma")))  // violation
double Targeted(double a, double b) { return a * b + 1.0; }

__attribute__((optimize("fp-contract=fast")))  // violation
double Optimized(double a) { return a * a + a; }

}  // namespace tamp_testdata
