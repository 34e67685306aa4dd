#include "linalg/factorizations.hpp"

#include "linalg/kernels.hpp"

namespace anyblock::linalg {

bool tiled_lu_nopiv(TiledMatrix& a) {
  const std::int64_t t = a.tiles();
  const std::int64_t nb = a.tile_size();
  for (std::int64_t l = 0; l < t; ++l) {
    if (!getrf_nopiv(a.tile(l, l), nb)) return false;
    for (std::int64_t i = l + 1; i < t; ++i)
      trsm_right_upper(a.tile(l, l), a.tile(i, l), nb);
    for (std::int64_t j = l + 1; j < t; ++j)
      trsm_left_lower_unit(a.tile(l, l), a.tile(l, j), nb);
    for (std::int64_t i = l + 1; i < t; ++i)
      for (std::int64_t j = l + 1; j < t; ++j)
        gemm_update(a.tile(i, l), a.tile(l, j), a.tile(i, j), nb);
  }
  return true;
}

bool tiled_cholesky(TiledMatrix& a) {
  const std::int64_t t = a.tiles();
  const std::int64_t nb = a.tile_size();
  for (std::int64_t l = 0; l < t; ++l) {
    if (!potrf_lower(a.tile(l, l), nb)) return false;
    for (std::int64_t i = l + 1; i < t; ++i)
      trsm_right_lower_trans(a.tile(l, l), a.tile(i, l), nb);
    for (std::int64_t i = l + 1; i < t; ++i) {
      syrk_update_lower(a.tile(i, l), a.tile(i, i), nb);
      for (std::int64_t j = l + 1; j < i; ++j)
        gemm_update_trans_b(a.tile(i, l), a.tile(j, l), a.tile(i, j), nb);
    }
  }
  return true;
}

}  // namespace anyblock::linalg
