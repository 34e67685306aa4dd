// Reference implementations the library must reproduce bit for bit.
//
// The scalar loop nests are the tile kernels as they were before they were
// register-blocked, and the dense residuals are the residuals as they were
// before they went tile by tile.  Tests compare the library against them
// with memcmp, so every operation and its order here is part of the
// contract.
#pragma once

#include <cmath>
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

/// In-place LU without pivoting, right-looking: per element, a_ij -= l_ik *
/// u_kj for k < min(i, j) in order, then below the diagonal one multiply by
/// 1 / u_jj.  False at the first (near-)zero pivot.
inline bool getrf_nopiv(std::span<double> a, std::int64_t nb) {
  constexpr double kPivotTolerance = 1e-300;
  for (std::int64_t k = 0; k < nb; ++k) {
    const double pivot = a[static_cast<std::size_t>(k * nb + k)];
    if (std::abs(pivot) < kPivotTolerance) return false;
    const double inv = 1.0 / pivot;
    for (std::int64_t i = k + 1; i < nb; ++i) {
      double* row_i = a.data() + i * nb;
      const double lik = row_i[k] * inv;
      row_i[k] = lik;
      const double* row_k = a.data() + k * nb;
      for (std::int64_t j = k + 1; j < nb; ++j) row_i[j] -= lik * row_k[j];
    }
  }
  return true;
}

/// In-place lower Cholesky, left-looking: per element, a_ij -= l_ik * l_jk
/// for k < j in order, then the square root on the diagonal or one multiply
/// by 1 / l_jj below it.  False at the first non-positive diagonal.
inline bool potrf_lower(std::span<double> a, std::int64_t nb) {
  for (std::int64_t j = 0; j < nb; ++j) {
    double* row_j = a.data() + j * nb;
    double djj = row_j[j];
    for (std::int64_t k = 0; k < j; ++k) djj -= row_j[k] * row_j[k];
    if (djj <= 0.0) return false;
    const double ljj = std::sqrt(djj);
    row_j[j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::int64_t i = j + 1; i < nb; ++i) {
      double* row_i = a.data() + i * nb;
      double lij = row_i[j];
      for (std::int64_t k = 0; k < j; ++k) lij -= row_i[k] * row_j[k];
      row_i[j] = lij * inv;
    }
  }
  return true;
}

/// B := B * U^{-1}: per element, b_ij -= x_ik * u_kj for k < j in order,
/// then one division by u_jj.
inline void trsm_right_upper(std::span<const double> u, std::span<double> b,
                             std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    double* brow = b.data() + i * nb;
    for (std::int64_t j = 0; j < nb; ++j) {
      double x = brow[j];
      for (std::int64_t k = 0; k < j; ++k)
        x -= brow[k] * u[static_cast<std::size_t>(k * nb + j)];
      brow[j] = x / u[static_cast<std::size_t>(j * nb + j)];
    }
  }
}

/// B := L^{-1} * B, L unit lower: per element, b_ij -= l_ik * x_kj for
/// k < i in order, skipping l_ik == 0.
inline void trsm_left_lower_unit(std::span<const double> l,
                                 std::span<double> b, std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    double* brow_i = b.data() + i * nb;
    const double* lrow = l.data() + i * nb;
    for (std::int64_t k = 0; k < i; ++k) {
      const double lik = lrow[k];
      if (lik == 0.0) continue;
      const double* brow_k = b.data() + k * nb;
      for (std::int64_t j = 0; j < nb; ++j) brow_i[j] -= lik * brow_k[j];
    }
  }
}

/// B := B * L^{-T}: per element, b_ij -= x_ik * l_jk for k < j in order,
/// then one division by l_jj.
inline void trsm_right_lower_trans(std::span<const double> l,
                                   std::span<double> b, std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    double* brow = b.data() + i * nb;
    for (std::int64_t j = 0; j < nb; ++j) {
      double x = brow[j];
      const double* lrow_j = l.data() + j * nb;
      for (std::int64_t k = 0; k < j; ++k) x -= brow[k] * lrow_j[k];
      brow[j] = x / lrow_j[j];
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
