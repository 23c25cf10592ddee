#pragma once

#include <cstddef>

namespace tamp::nn {

/// The LSTM gate nonlinearities, owned by the repository instead of the
/// host libm (DESIGN.md §4i). Both run one exp/expm1 core: Cody–Waite
/// reduction x = k·ln2 + r, a degree-11 minimax polynomial for expm1(r)
/// with no constant term, and 2^k built from exponent bits as two factors
/// so that results near underflow or overflow round once. Elements go two
/// per SSE2 lane pair with separate multiplies and adds (no FMA); the
/// scalar tail, and every element on a target without SSE2, runs the same
/// operation chain, so each output depends only on its own input and is
/// bitwise equal wherever in the array it sits (tests/nn_activation_oracle.h
/// keeps a scalar copy).
///
/// Accuracy against libm (tests/nn_activation_test.cc): the exp core is
/// within 3 ulp of std::exp over [−745, 710], sigmoid within 4.5e-16
/// absolute of 1 / (1 + std::exp(−v)), tanh within 8 ulp of std::tanh.
/// NaN maps to NaN; ±inf gives sigmoid 1 / 0 and tanh ±1; tanh keeps the
/// sign of zero and returns subnormal inputs unchanged.

/// v[j] = 1 / (1 + exp(−v[j])) for j in [0, n).
void SigmoidInPlace(double* v, size_t n);

/// v[j] = tanh(v[j]) for j in [0, n), as sign(x)·e / (e + 2) with
/// e = expm1(2·min(|x|, 22)).
void TanhInPlace(double* v, size_t n);

}  // namespace tamp::nn
