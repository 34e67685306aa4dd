// Sequential right-looking tiled factorizations.
//
// These are the single-node references the distributed (vmpi) and simulated
// executions are validated against; their loop structure is exactly the
// task DAG described in Section III of the paper.
#pragma once

#include "linalg/tiled_matrix.hpp"

namespace anyblock::linalg {

/// In-place tiled LU without pivoting: A -> L\U across the tile grid.
/// Returns false on a failed tile factorization (near-singular pivot).
bool tiled_lu_nopiv(TiledMatrix& a);

/// In-place tiled lower Cholesky on the lower triangle of A; tiles strictly
/// above the diagonal are not referenced.  Returns false if not positive
/// definite.
bool tiled_cholesky(TiledMatrix& a);

}  // namespace anyblock::linalg
