// analyze:path=src/nn/fp_contract_ok.cc
// Negative case: separate multiply and add (scalar or SSE2), identifiers
// that merely contain "fma", and the words in comments or strings are all
// legal. Comment mentions of std::fma(a, b, c) or _mm256_fmadd_pd never
// count.

#include <emmintrin.h>

namespace tamp_testdata {

double Separate(double a, double b, double c) { return a * b + c; }

__m128d SeparateLanes(__m128d a, __m128d b, __m128d c) {
  return _mm_add_pd(_mm_mul_pd(a, b), c);
}

double my_fma(double a, double b, double c) { return a * b + c; }

double CallsLookalike(double a) { return my_fma(a, a, a); }

const char* Describe() { return "std::fma( is not used; #pragma GCC optimize"; }

__attribute__((always_inline)) inline double Inlined(double a) {
  return a + 1.0;
}

}  // namespace tamp_testdata
