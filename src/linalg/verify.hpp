// Residual checks for the factorization outputs.
#pragma once

#include "linalg/dense_matrix.hpp"
#include "linalg/tiled_matrix.hpp"

namespace anyblock::linalg {

/// ||A - L*U||_F / ||A||_F where `factored` holds the packed L\U output of
/// an (un-pivoted) LU factorization.
double lu_residual(const DenseMatrix& original, const TiledMatrix& factored);

/// ||A - L*L^T||_F / ||A||_F where the lower triangle of `factored` holds
/// the Cholesky factor (the strict upper triangle is ignored).
double cholesky_residual(const DenseMatrix& original,
                         const TiledMatrix& factored);

}  // namespace anyblock::linalg
