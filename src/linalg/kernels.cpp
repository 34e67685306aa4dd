#include "linalg/kernels.hpp"

#include <cmath>
#include <vector>

namespace anyblock::linalg {
namespace {

constexpr double kPivotTolerance = 1e-300;

}  // namespace

// Every kernel below but the matrix-vector ones holds a kRows x kCols block
// of its output in vector registers across a k loop.  Each element still sees
// exactly the operation sequence of the plain loop nest (k ascending, one
// rounded product and one rounded add or subtract per step, then the same
// division, reciprocal multiply or square root), so the results are
// bit-identical to it on every ISA; that needs -ffp-contract=off, which the
// top-level build sets, or the compiler fuses them into FMAs.
// target_clones compiles the one body per ISA and the loader picks the
// widest variant the CPU has.  Rows and columns that do not fill a block
// run a plain loop.  ThreadSanitizer builds keep the default variant only:
// GCC's clone resolvers run before the TSan runtime is up and crash every
// binary at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define ANYBLOCK_TILE_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ANYBLOCK_TILE_CLONES
#endif

namespace {

/// Eight doubles: one register with AVX-512, two with AVX2, four with SSE2.
/// `aligned(8)` and `may_alias` let it load from and store to any double.
typedef double Vec8
    __attribute__((vector_size(64), aligned(8), may_alias));

constexpr std::int64_t kRows = 4;
constexpr std::int64_t kCols = 16;  // two Vec8

/// kRows rows of kCols consecutive elements.
using Block = Vec8[kRows][2];

inline const Vec8& vec_at(const double* p) {
  return *reinterpret_cast<const Vec8*>(p);
}
inline Vec8& vec_at(double* p) { return *reinterpret_cast<Vec8*>(p); }

/// Copies columns 0 .. k_end - 1 of rows j .. j + kCols - 1 of `m`
/// transposed into `slab`: slab[k * kCols + jj] = m[(j + jj) * nb + k], so
/// the lanes of a block run over j.
void pack_transposed(const double* m, std::int64_t nb, std::int64_t j,
                     std::int64_t k_end, double* slab) {
  for (std::int64_t jj = 0; jj < kCols; ++jj) {
    const double* row = m + (j + jj) * nb;
    for (std::int64_t k = 0; k < k_end; ++k) slab[k * kCols + jj] = row[k];
  }
}

// The block helpers are inlined so that each ISA variant of a caller gets
// its own copy.

[[gnu::always_inline]] inline void load_block(const double* c, std::int64_t ldc,
                                              Block& acc) {
  for (std::int64_t r = 0; r < kRows; ++r) {
    acc[r][0] = vec_at(c + r * ldc);
    acc[r][1] = vec_at(c + r * ldc + 8);
  }
}

[[gnu::always_inline]] inline void store_block(const Block& acc, double* c,
                                               std::int64_t ldc) {
  for (std::int64_t r = 0; r < kRows; ++r) {
    vec_at(c + r * ldc) = acc[r][0];
    vec_at(c + r * ldc + 8) = acc[r][1];
  }
}

/// acc[r] -= a[r * lda + k] * (row k of b) for k = 0 .. k_end - 1 in
/// order, row k of b being the kCols elements at b + k * ldb.  With
/// kSkipZeros a zero a[r * lda + k] subtracts nothing, as in a loop that
/// skips it.
template <bool kSkipZeros>
[[gnu::always_inline]] inline void subtract_products(
    const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
    std::int64_t k_end, Block& acc) {
  for (std::int64_t k = 0; k < k_end; ++k) {
    const Vec8 b0 = vec_at(b + k * ldb);
    const Vec8 b1 = vec_at(b + k * ldb + 8);
    for (std::int64_t r = 0; r < kRows; ++r) {
      const double ark = a[r * lda + k];
      if (kSkipZeros && ark == 0.0) continue;
      acc[r][0] -= ark * b0;
      acc[r][1] -= ark * b1;
    }
  }
}

/// Finishes a unit-lower solve of the rows of `acc`: acc[r] -= l[r * ldl +
/// q] * acc[q] for q < r in order, where `l` points at the diagonal element
/// of the block's first row.  kSkipZeros as in subtract_products.
template <bool kSkipZeros>
[[gnu::always_inline]] inline void solve_unit_lower_rows(const double* l,
                                                         std::int64_t ldl,
                                                         Block& acc) {
  for (std::int64_t r = 1; r < kRows; ++r)
    for (std::int64_t q = 0; q < r; ++q) {
      const double lrq = l[r * ldl + q];
      if (kSkipZeros && lrq == 0.0) continue;
      acc[r][0] -= lrq * acc[q][0];
      acc[r][1] -= lrq * acc[q][1];
    }
}

/// Finishes a right-side solve of the rows of `acc` against the upper
/// triangle of a kCols x kCols diagonal block (row q at u + q * ldu), once
/// every earlier column's product is subtracted from every lane.  For q
/// ascending, lane q is then final: finish(lane, q) is stored at x[r * ldx
/// + q] and subtracted, times row q of u, from the row.  That writes
/// garbage into the lanes <= q, which are never read again.
template <class Finish>
[[gnu::always_inline]] inline void solve_right_columns(
    const double* u, std::int64_t ldu, double* x, std::int64_t ldx,
    Finish finish, Block& acc) {
#pragma GCC unroll 8
  for (int q = 0; q < 8; ++q) {
    const Vec8 u0 = vec_at(u + q * ldu);
    const Vec8 u1 = vec_at(u + q * ldu + 8);
    for (std::int64_t r = 0; r < kRows; ++r) {
      const double v = finish(acc[r][0][q], q);
      x[r * ldx + q] = v;
      acc[r][0] -= v * u0;
      acc[r][1] -= v * u1;
    }
  }
#pragma GCC unroll 8
  for (int q = 0; q < 8; ++q) {
    const Vec8 u1 = vec_at(u + (8 + q) * ldu + 8);
    for (std::int64_t r = 0; r < kRows; ++r) {
      const double v = finish(acc[r][1][q], 8 + q);
      x[r * ldx + 8 + q] = v;
      acc[r][1] -= v * u1;
    }
  }
}

/// acc[r] = the dot products of row i + r of the nb x nb matrix `a` with
/// the kCols rows packed in `slab`, each summed from 0.0 in k order.
[[gnu::always_inline]] inline void dot_block(const double* a, std::int64_t nb,
                                             std::int64_t i,
                                             const double* slab, Block& acc) {
  for (auto& row : acc) row[0] = row[1] = Vec8{};
  for (std::int64_t k = 0; k < nb; ++k) {
    const Vec8 b0 = vec_at(slab + k * kCols);
    const Vec8 b1 = vec_at(slab + k * kCols + 8);
    for (std::int64_t r = 0; r < kRows; ++r) {
      const double aik = a[(i + r) * nb + k];
      acc[r][0] += aik * b0;
      acc[r][1] += aik * b1;
    }
  }
}

/// X * U = B in place, with U upper triangular and non-unit (row-major,
/// leading dimension nb; its strict lower part is read but never used):
/// per element, b_ij -= x_ik * u_kj for k < j in order, then one division
/// by u_jj.  Rows are independent; within a row, column blocks go left to
/// right.
[[gnu::always_inline]] inline void solve_right_upper(const double* u,
                                                     double* b,
                                                     std::int64_t nb) {
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  for (std::int64_t j = 0; j < cols; j += kCols) {
    const double* diagonal = u + j * nb + j;
    const auto divide = [diagonal, nb](double v, int q) {
      return v / diagonal[q * nb + q];
    };
    for (std::int64_t i = 0; i < rows; i += kRows) {
      double* x = b + i * nb;
      Block acc;
      load_block(x + j, nb, acc);
      subtract_products<false>(x, nb, u + j, nb, j, acc);
      solve_right_columns(diagonal, nb, x + j, nb, divide, acc);
    }
  }
  for (std::int64_t i = 0; i < nb; ++i) {
    double* brow = b + i * nb;
    for (std::int64_t j = i < rows ? cols : 0; j < nb; ++j) {
      double x = brow[j];
      for (std::int64_t k = 0; k < j; ++k) x -= brow[k] * u[k * nb + j];
      brow[j] = x / u[j * nb + j];
    }
  }
}

/// The diagonal blocks of both factorizations are factored right-looking
/// in a kCols x kCols copy `d` of the block's rows, after every earlier
/// panel's products have been subtracted.  At step k the finished row or
/// column k goes to the tile, and each later row of d drops its multiplier
/// times a whole row vector: per element, the next product of the plain
/// loop's sequence.  That writes garbage into lanes that are finished or
/// outside the triangle, which are never read again.

/// LU of the block: step k checks the pivot d_kk, stores u_kj (j >= k) and
/// l_ik = d_ik * inv[k] with inv[k] = 1 / d_kk in the tile at `a` (leading
/// dimension lda), then subtracts l_ik * (row k of d) from each row i > k.
/// False on a (near-)zero pivot.
[[gnu::always_inline]] inline bool getrf_diagonal_block(double* d, double* a,
                                                        std::int64_t lda,
                                                        double* inv) {
  for (std::int64_t k = 0; k < kCols; ++k) {
    const double* row_k = d + k * kCols;
    const double pivot = row_k[k];
    if (std::abs(pivot) < kPivotTolerance) return false;
    const double inv_k = 1.0 / pivot;
    inv[k] = inv_k;
    for (std::int64_t j = k; j < kCols; ++j) a[k * lda + j] = row_k[j];
    const Vec8 u0 = vec_at(row_k);
    const Vec8 u1 = vec_at(row_k + 8);
    for (std::int64_t i = k + 1; i < kCols; ++i) {
      double* row_i = d + i * kCols;
      const double lik = row_i[k] * inv_k;
      a[i * lda + k] = lik;
      if (k < 8) vec_at(row_i) -= lik * u0;
      vec_at(row_i + 8) -= lik * u1;
    }
  }
  return true;
}

/// Cholesky of the block's lower triangle.  Its strict upper triangle is
/// first overwritten with the mirror of the lower one; the updates keep d
/// symmetric bit for bit, so right of the diagonal, row k of d is column k
/// below it.  Step k checks d_kk, computes l_kk = sqrt(d_kk) and l_ik =
/// d_ik * inv[k] with inv[k] = 1 / l_kk as row k of d times inv[k], stores
/// them in the tile at `a` (leading dimension lda) and as row k of `lt`,
/// then subtracts l_ik * (row k of lt) from each row i > k.  So `lt` ends
/// up holding L^T for the solves below the block.  False if a d_kk is not
/// positive.
[[gnu::always_inline]] inline bool potrf_diagonal_block(double* d, double* a,
                                                        std::int64_t lda,
                                                        double* lt,
                                                        double* inv) {
  for (std::int64_t i = 0; i < kCols; ++i)
    for (std::int64_t j = i + 1; j < kCols; ++j)
      d[i * kCols + j] = d[j * kCols + i];
  for (std::int64_t k = 0; k < kCols; ++k) {
    const double dkk = d[k * kCols + k];
    if (dkk <= 0.0) return false;
    const double lkk = std::sqrt(dkk);
    const double inv_k = 1.0 / lkk;
    a[k * lda + k] = lkk;
    inv[k] = inv_k;
    double* col = lt + k * kCols;
    const Vec8 c0 = vec_at(d + k * kCols) * inv_k;
    const Vec8 c1 = vec_at(d + k * kCols + 8) * inv_k;
    vec_at(col) = c0;
    vec_at(col + 8) = c1;
    for (std::int64_t i = k + 1; i < kCols; ++i) {
      const double lik = col[i];
      a[i * lda + k] = lik;
      double* row_i = d + i * kCols;
      if (k < 8) vec_at(row_i) -= lik * c0;
      vec_at(row_i + 8) -= lik * c1;
    }
  }
  return true;
}

}  // namespace

ANYBLOCK_TILE_CLONES
void gemm_update(std::span<const double> a, std::span<const double> b,
                 std::span<double> c, std::int64_t nb) {
  // C -= A*B: per element, k ascending, c -= a_ik * b_kj.
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  for (std::int64_t i = 0; i < rows; i += kRows) {
    for (std::int64_t j = 0; j < cols; j += kCols) {
      Block acc;
      load_block(c.data() + i * nb + j, nb, acc);
      subtract_products<false>(a.data() + i * nb, nb, b.data() + j, nb, nb,
                               acc);
      store_block(acc, c.data() + i * nb + j, nb);
    }
  }
  // The rest with the ikj loop (stride-1 inner loop everywhere).
  for (std::int64_t i = 0; i < nb; ++i) {
    const std::int64_t j_begin = i < rows ? cols : 0;
    if (j_begin == nb) continue;
    double* crow = c.data() + i * nb;
    const double* arow = a.data() + i * nb;
    for (std::int64_t k = 0; k < nb; ++k) {
      const double aik = arow[k];
      const double* brow = b.data() + k * nb;
      for (std::int64_t j = j_begin; j < nb; ++j) crow[j] -= aik * brow[j];
    }
  }
}

ANYBLOCK_TILE_CLONES
void gemm_update_trans_b(std::span<const double> a, std::span<const double> b,
                         std::span<double> c, std::int64_t nb) {
  // C -= A*B^T: per element, a dot product of row i of A and row j of B
  // summed from 0.0 in k order, then one subtract.
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  std::vector<double> slab(static_cast<std::size_t>(cols > 0 ? nb * kCols : 0));
  for (std::int64_t j = 0; j < cols; j += kCols) {
    pack_transposed(b.data(), nb, j, nb, slab.data());
    for (std::int64_t i = 0; i < rows; i += kRows) {
      Block acc;
      dot_block(a.data(), nb, i, slab.data(), acc);
      for (std::int64_t r = 0; r < kRows; ++r) {
        vec_at(c.data() + (i + r) * nb + j) -= acc[r][0];
        vec_at(c.data() + (i + r) * nb + j + 8) -= acc[r][1];
      }
    }
  }
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* arow = a.data() + i * nb;
    double* crow = c.data() + i * nb;
    for (std::int64_t j = i < rows ? cols : 0; j < nb; ++j) {
      const double* brow = b.data() + j * nb;
      double dot = 0.0;
      for (std::int64_t k = 0; k < nb; ++k) dot += arow[k] * brow[k];
      crow[j] -= dot;
    }
  }
}

ANYBLOCK_TILE_CLONES
void syrk_update_lower(std::span<const double> a, std::span<double> c,
                       std::int64_t nb) {
  // gemm_update_trans_b with B = A, for the elements j <= i only.  A block
  // that straddles the diagonal computes all its dot products but
  // subtracts only those on or below it.
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  std::vector<double> slab(static_cast<std::size_t>(cols > 0 ? nb * kCols : 0));
  for (std::int64_t j = 0; j < cols; j += kCols) {
    pack_transposed(a.data(), nb, j, nb, slab.data());
    // Row blocks above row j hold nothing on or below the diagonal.
    for (std::int64_t i = j; i < rows; i += kRows) {
      Block acc;
      dot_block(a.data(), nb, i, slab.data(), acc);
      for (std::int64_t r = 0; r < kRows; ++r) {
        double* cblock = c.data() + (i + r) * nb + j;
        if (j + kCols - 1 <= i + r) {
          vec_at(cblock) -= acc[r][0];
          vec_at(cblock + 8) -= acc[r][1];
          continue;
        }
        double dots[kCols];
        vec_at(dots) = acc[r][0];
        vec_at(dots + 8) = acc[r][1];
        for (std::int64_t jj = 0; j + jj <= i + r; ++jj) cblock[jj] -= dots[jj];
      }
    }
  }
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* arow_i = a.data() + i * nb;
    double* crow = c.data() + i * nb;
    for (std::int64_t j = i < rows ? cols : 0; j <= i; ++j) {
      const double* arow_j = a.data() + j * nb;
      double dot = 0.0;
      for (std::int64_t k = 0; k < nb; ++k) dot += arow_i[k] * arow_j[k];
      crow[j] -= dot;
    }
  }
}

ANYBLOCK_TILE_CLONES
bool getrf_nopiv(std::span<double> tile, std::int64_t nb) {
  // Left-looking, one panel of kCols columns at a time.  Per element,
  // a_ij -= l_ik * u_kj for k < min(i, j) in order, then below the diagonal
  // one multiply by 1 / u_jj: the sequence of the right-looking loop.
  double* a = tile.data();
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  for (std::int64_t j = 0; j < cols; j += kCols) {
    // U above the diagonal block: a unit-lower solve with the finished L.
    for (std::int64_t i = 0; i < j; i += kRows) {
      Block acc;
      load_block(a + i * nb + j, nb, acc);
      subtract_products<false>(a + i * nb, nb, a + j, nb, i, acc);
      solve_unit_lower_rows<false>(a + i * nb + i, nb, acc);
      store_block(acc, a + i * nb + j, nb);
    }
    // The diagonal block: every k < j into a copy, then its own steps.
    double d[kCols * kCols];
    for (std::int64_t i = 0; i < kCols; i += kRows) {
      Block acc;
      load_block(a + (j + i) * nb + j, nb, acc);
      subtract_products<false>(a + (j + i) * nb, nb, a + j, nb, j, acc);
      store_block(acc, d + i * kCols, kCols);
    }
    double inv[kCols];
    if (!getrf_diagonal_block(d, a + j * nb + j, nb, inv)) return false;
    // L below it: a right-side solve with the diagonal block's U.
    const auto scale = [&inv](double v, int q) { return v * inv[q]; };
    for (std::int64_t i = j + kCols; i < rows; i += kRows) {
      Block acc;
      load_block(a + i * nb + j, nb, acc);
      subtract_products<false>(a + i * nb, nb, a + j, nb, j, acc);
      solve_right_columns(a + j * nb + j, nb, a + i * nb + j, nb, scale, acc);
    }
    for (std::int64_t i = rows; i < nb; ++i) {
      double* row_i = a + i * nb;
      for (std::int64_t q = 0; q < kCols; ++q) {
        double x = row_i[j + q];
        for (std::int64_t k = 0; k < j + q; ++k)
          x -= row_i[k] * a[k * nb + j + q];
        row_i[j + q] = x * inv[q];
      }
    }
  }
  // The columns after the last panel, one at a time: U, the pivot, L.
  for (std::int64_t j = cols; j < nb; ++j) {
    for (std::int64_t i = 0; i <= j; ++i) {
      double* row_i = a + i * nb;
      double x = row_i[j];
      for (std::int64_t k = 0; k < i; ++k) x -= row_i[k] * a[k * nb + j];
      row_i[j] = x;
    }
    const double pivot = a[j * nb + j];
    if (std::abs(pivot) < kPivotTolerance) return false;
    const double inv = 1.0 / pivot;
    for (std::int64_t i = j + 1; i < nb; ++i) {
      double* row_i = a + i * nb;
      double x = row_i[j];
      for (std::int64_t k = 0; k < j; ++k) x -= row_i[k] * a[k * nb + j];
      row_i[j] = x * inv;
    }
  }
  return true;
}

ANYBLOCK_TILE_CLONES
bool potrf_lower(std::span<double> tile, std::int64_t nb) {
  // Left-looking like the plain loop, one panel of kCols columns at a time.
  // Per element, a_ij -= l_ik * l_jk for k < j in order, then the square
  // root on the diagonal or one multiply by 1 / l_jj below it.
  double* a = tile.data();
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  // Row k of the slab holds l_jk in lane j - j0 for the panel's columns j.
  std::vector<double> slab(static_cast<std::size_t>(cols > 0 ? nb * kCols : 0));
  for (std::int64_t j = 0; j < cols; j += kCols) {
    pack_transposed(a, nb, j, j, slab.data());
    // The diagonal block: every k < j into a copy (the tile's strict upper
    // triangle is never written), then its own steps.
    double d[kCols * kCols];
    for (std::int64_t i = 0; i < kCols; i += kRows) {
      Block acc;
      load_block(a + (j + i) * nb + j, nb, acc);
      subtract_products<false>(a + (j + i) * nb, nb, slab.data(), kCols, j,
                               acc);
      store_block(acc, d + i * kCols, kCols);
    }
    double inv[kCols];
    if (!potrf_diagonal_block(d, a + j * nb + j, nb, slab.data() + j * kCols,
                              inv))
      return false;
    // Below it: a right-side solve with the diagonal block's L^T.
    const auto scale = [&inv](double v, int q) { return v * inv[q]; };
    for (std::int64_t i = j + kCols; i < rows; i += kRows) {
      Block acc;
      load_block(a + i * nb + j, nb, acc);
      subtract_products<false>(a + i * nb, nb, slab.data(), kCols, j, acc);
      solve_right_columns(slab.data() + j * kCols, kCols, a + i * nb + j, nb,
                          scale, acc);
    }
    for (std::int64_t i = rows; i < nb; ++i) {
      double* row_i = a + i * nb;
      for (std::int64_t q = 0; q < kCols; ++q) {
        const double* row_j = a + (j + q) * nb;
        double lij = row_i[j + q];
        for (std::int64_t k = 0; k < j + q; ++k) lij -= row_i[k] * row_j[k];
        row_i[j + q] = lij * inv[q];
      }
    }
  }
  // The columns after the last panel: the plain loop.
  for (std::int64_t j = cols; j < nb; ++j) {
    double* row_j = a + j * nb;
    double djj = row_j[j];
    for (std::int64_t k = 0; k < j; ++k) djj -= row_j[k] * row_j[k];
    if (djj <= 0.0) return false;
    const double ljj = std::sqrt(djj);
    row_j[j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::int64_t i = j + 1; i < nb; ++i) {
      double* row_i = a + i * nb;
      double lij = row_i[j];
      for (std::int64_t k = 0; k < j; ++k) lij -= row_i[k] * row_j[k];
      row_i[j] = lij * inv;
    }
  }
  return true;
}

ANYBLOCK_TILE_CLONES
void trsm_right_upper(std::span<const double> u, std::span<double> b,
                      std::int64_t nb) {
  solve_right_upper(u.data(), b.data(), nb);
}

ANYBLOCK_TILE_CLONES
void trsm_left_lower_unit(std::span<const double> l, std::span<double> b,
                          std::int64_t nb) {
  // L * X = B with unit diagonal: per element, b_ij -= l_ik * x_kj for
  // k < i in order, skipping l_ik == 0 (a zero product still turns a -0
  // into +0).  Column blocks are independent; within one, row blocks go
  // top to bottom.
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  for (std::int64_t j = 0; j < cols; j += kCols) {
    for (std::int64_t i = 0; i < rows; i += kRows) {
      const double* lrows = l.data() + i * nb;
      Block acc;
      load_block(b.data() + i * nb + j, nb, acc);
      subtract_products<true>(lrows, nb, b.data() + j, nb, i, acc);
      solve_unit_lower_rows<true>(lrows + i, nb, acc);
      store_block(acc, b.data() + i * nb + j, nb);
    }
  }
  for (std::int64_t i = 0; i < nb; ++i) {
    const std::int64_t j_begin = i < rows ? cols : 0;
    if (j_begin == nb) continue;
    double* brow_i = b.data() + i * nb;
    const double* lrow = l.data() + i * nb;
    for (std::int64_t k = 0; k < i; ++k) {
      const double lik = lrow[k];
      if (lik == 0.0) continue;
      const double* brow_k = b.data() + k * nb;
      for (std::int64_t j = j_begin; j < nb; ++j) brow_i[j] -= lik * brow_k[j];
    }
  }
}

ANYBLOCK_TILE_CLONES
void trsm_right_lower_trans(std::span<const double> l, std::span<double> b,
                            std::int64_t nb) {
  // X * L^T = B is X * U = B with U = L^T, packed from the lower triangle
  // of L only, zeros below its diagonal.
  std::vector<double> packed(static_cast<std::size_t>(nb * nb), 0.0);
  double* lt = packed.data();
  for (std::int64_t j = 0; j < nb; ++j) {
    const double* lrow_j = l.data() + j * nb;
    for (std::int64_t k = 0; k <= j; ++k) lt[k * nb + j] = lrow_j[k];
  }
  solve_right_upper(lt, b.data(), nb);
}

void gemv_update(std::span<const double> a, std::span<const double> x,
                 std::span<double> y, std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* row = a.data() + i * nb;
    double dot = 0.0;
    for (std::int64_t j = 0; j < nb; ++j) dot += row[j] * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] -= dot;
  }
}

void gemv_update_trans(std::span<const double> a, std::span<const double> x,
                       std::span<double> y, std::int64_t nb) {
  for (std::int64_t j = 0; j < nb; ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    const double* row = a.data() + j * nb;  // A^T column j = A row j
    for (std::int64_t i = 0; i < nb; ++i)
      y[static_cast<std::size_t>(i)] -= row[i] * xj;
  }
}

void trsv_lower_unit(std::span<const double> a, std::span<double> x,
                     std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* row = a.data() + i * nb;
    double v = x[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < i; ++j) v -= row[j] * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = v;
  }
}

void trsv_upper(std::span<const double> a, std::span<double> x,
                std::int64_t nb) {
  for (std::int64_t i = nb - 1; i >= 0; --i) {
    const double* row = a.data() + i * nb;
    double v = x[static_cast<std::size_t>(i)];
    for (std::int64_t j = i + 1; j < nb; ++j)
      v -= row[j] * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = v / row[i];
  }
}

void trsv_lower(std::span<const double> a, std::span<double> x,
                std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    const double* row = a.data() + i * nb;
    double v = x[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < i; ++j) v -= row[j] * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = v / row[i];
  }
}

void trsv_lower_trans(std::span<const double> a, std::span<double> x,
                      std::int64_t nb) {
  // Solve L^T x = b: L^T(i, j) = L(j, i), upper triangular.
  for (std::int64_t i = nb - 1; i >= 0; --i) {
    double v = x[static_cast<std::size_t>(i)];
    for (std::int64_t j = i + 1; j < nb; ++j)
      v -= a[static_cast<std::size_t>(j * nb + i)] *
           x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = v / a[static_cast<std::size_t>(i * nb + i)];
  }
}

double gemm_flops(std::int64_t nb) {
  const double n = static_cast<double>(nb);
  return 2.0 * n * n * n;
}

double syrk_flops(std::int64_t nb) {
  const double n = static_cast<double>(nb);
  return n * n * (n + 1.0);
}

double trsm_flops(std::int64_t nb) {
  const double n = static_cast<double>(nb);
  return n * n * n;
}

double getrf_flops(std::int64_t nb) {
  const double n = static_cast<double>(nb);
  return 2.0 / 3.0 * n * n * n;
}

double potrf_flops(std::int64_t nb) {
  const double n = static_cast<double>(nb);
  return n * n * n / 3.0;
}

double lu_total_flops(std::int64_t n) {
  const double m = static_cast<double>(n);
  return 2.0 / 3.0 * m * m * m;
}

double cholesky_total_flops(std::int64_t n) {
  const double m = static_cast<double>(n);
  return m * m * m / 3.0;
}

}  // namespace anyblock::linalg
