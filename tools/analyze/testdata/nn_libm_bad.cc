// analyze:path=src/nn/nn_libm_bad.cc
// Seeded violations: host-libm exponentials and tanh in the LSTM code.
// Each one makes a forecast depend on which libm the host links.

#include <cmath>

namespace tamp_testdata {

double Sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }  // violation

double Candidate(double v) { return std::tanh(v); }  // violation

double Bare(double v) { return tanh(v) + exp(v); }  // violation

double Float(float v) { return expf(v) + std::expm1(v); }  // violation

double Builtin(double v) { return __builtin_exp(v); }  // violation

double (*const kExp)(double) = std::exp;  // violation

}  // namespace tamp_testdata
