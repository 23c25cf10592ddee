// analyze:path=src/nn/nn_libm_ok.cc
// Negative case: the repo's activation kernel, identifiers that merely
// contain the names, member calls, other libm functions, and mentions in
// comments or strings (std::exp(v), tanh(c)) are all legal.

#include <cmath>
#include <cstddef>

namespace tamp_testdata {

void SigmoidInPlace(double* v, std::size_t n);
void TanhInPlace(double* v, std::size_t n);

template <class Model>
double Gate(double* z, double* tanh_c, const Model& model) {
  SigmoidInPlace(z, 2);
  TanhInPlace(tanh_c, 1);
  const char* label = "std::tanh(x)";
  double expected = model.exp(z[0]);
  return expected + tanh_c[0] + std::sqrt(z[1]) + (label != nullptr ? 1 : 0);
}

}  // namespace tamp_testdata
