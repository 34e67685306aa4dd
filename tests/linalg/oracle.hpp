// Reference implementations the library must reproduce bit for bit.
//
// The scalar loop nests are the tile kernels as they were before they were
// register-blocked, and the dense residuals are the residuals as they were
// before they went tile by tile.  Tests compare the library against them
// with memcmp, so every operation and its order here is part of the
// contract.
#pragma once

#include <cstdint>
#include <span>

#include "linalg/dense_matrix.hpp"
#include "linalg/tiled_matrix.hpp"

namespace anyblock::linalg::oracle {

/// C := C - A * B with the ikj loop order: per element, k ascending, one
/// rounded product and one subtract.
inline void gemm_update(std::span<const double> a, std::span<const double> b,
                        std::span<double> c, std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    double* crow = c.data() + i * nb;
    const double* arow = a.data() + i * nb;
    for (std::int64_t k = 0; k < nb; ++k) {
      const double aik = arow[k];
      const double* brow = b.data() + k * nb;
      for (std::int64_t j = 0; j < nb; ++j) crow[j] -= aik * brow[j];
    }
  }
}

/// C := C - A * B^T: per element, a dot product summed from 0.0 in k
/// order, then one subtract.
inline void gemm_update_trans_b(std::span<const double> a,
                                std::span<const double> b,
                                std::span<double> c, std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* arow = a.data() + i * nb;
    double* crow = c.data() + i * nb;
    for (std::int64_t j = 0; j < nb; ++j) {
      const double* brow = b.data() + j * nb;
      double dot = 0.0;
      for (std::int64_t k = 0; k < nb; ++k) dot += arow[k] * brow[k];
      crow[j] -= dot;
    }
  }
}

/// C := C - A * A^T on the lower triangle, as gemm_update_trans_b.
inline void syrk_update_lower(std::span<const double> a, std::span<double> c,
                              std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* arow_i = a.data() + i * nb;
    double* crow = c.data() + i * nb;
    for (std::int64_t j = 0; j <= i; ++j) {
      const double* arow_j = a.data() + j * nb;
      double dot = 0.0;
      for (std::int64_t k = 0; k < nb; ++k) dot += arow_i[k] * arow_j[k];
      crow[j] -= dot;
    }
  }
}

/// The unit-lower / upper / lower factors of a packed factor, dense.
inline DenseMatrix extract_unit_lower(const TiledMatrix& factored) {
  const std::int64_t n = factored.dim();
  DenseMatrix l(n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (std::int64_t j = 0; j < i; ++j) l(i, j) = factored.at(i, j);
  }
  return l;
}

inline DenseMatrix extract_upper(const TiledMatrix& factored) {
  const std::int64_t n = factored.dim();
  DenseMatrix u(n, n);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = i; j < n; ++j) u(i, j) = factored.at(i, j);
  return u;
}

inline DenseMatrix extract_lower(const TiledMatrix& factored) {
  const std::int64_t n = factored.dim();
  DenseMatrix l(n, n);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j <= i; ++j) l(i, j) = factored.at(i, j);
  return l;
}

/// ||L*U - A||_F / ||A||_F through dense copies and the naive product.
inline double lu_residual(const DenseMatrix& original,
                          const TiledMatrix& factored) {
  DenseMatrix product = DenseMatrix::multiply(extract_unit_lower(factored),
                                              extract_upper(factored));
  product.subtract(original);
  return product.norm() / original.norm();
}

/// ||L*L^T - A||_F / ||A||_F through dense copies and the naive product.
inline double cholesky_residual(const DenseMatrix& original,
                                const TiledMatrix& factored) {
  const DenseMatrix l = extract_lower(factored);
  DenseMatrix product = DenseMatrix::multiply(l, l.transposed());
  product.subtract(original);
  return product.norm() / original.norm();
}

}  // namespace anyblock::linalg::oracle
