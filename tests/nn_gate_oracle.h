#pragma once

#include <cstddef>

namespace tamp::nn::testing {

/// Reference for nn::GatePreactivations and, on transposed weights,
/// nn::GatePreactivationsKMajor: the serial scalar chain. Per row
/// r of the packed [i f g o] blocks, acc starts at b[r], adds W_x row r
/// against x in ascending k, then W_h row r against h in ascending k.
/// It includes nothing from src/: training and the forecast both run the
/// kernels, so comparing them with each other cannot catch a change to a
/// kernel's rounding.
inline void ScalarGatePreactivations(const double* wx, const double* wh,
                                     const double* b, const double* x,
                                     const double* h, size_t id, size_t hd,
                                     double* z) {
  const size_t h4 = 4 * hd;
  for (size_t r = 0; r < h4; ++r) {
    double acc = b[r];
    const double* wxr = wx + r * id;
    for (size_t k = 0; k < id; ++k) acc += wxr[k] * x[k];
    const double* whr = wh + r * hd;
    for (size_t k = 0; k < hd; ++k) acc += whr[k] * h[k];
    z[r] = acc;
  }
}

/// Reference for nn::GatePreactivationsKMajor on a general [rows x k_dim]
/// layer (the readout's shape): per row r, acc starts at b[r] and adds
/// w[r * k_dim + k] * v[k] in ascending k, w row-major.
inline void ScalarDenseChain(const double* w, const double* b,
                             const double* v, size_t k_dim, size_t rows,
                             double* z) {
  for (size_t r = 0; r < rows; ++r) {
    double acc = b[r];
    for (size_t k = 0; k < k_dim; ++k) acc += w[r * k_dim + k] * v[k];
    z[r] = acc;
  }
}

}  // namespace tamp::nn::testing
