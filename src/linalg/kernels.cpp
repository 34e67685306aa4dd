#include "linalg/kernels.hpp"

#include <cmath>
#include <vector>

namespace anyblock::linalg {
namespace {

constexpr double kPivotTolerance = 1e-300;

inline double elem(std::span<const double> m, std::int64_t nb, std::int64_t i,
                   std::int64_t j, bool trans) {
  return trans ? m[static_cast<std::size_t>(j * nb + i)]
               : m[static_cast<std::size_t>(i * nb + j)];
}

}  // namespace

void gemm(double alpha, std::span<const double> a, bool trans_a,
          std::span<const double> b, bool trans_b, double beta,
          std::span<double> c, std::int64_t nb) {
  for (std::int64_t i = 0; i < nb; ++i) {
    double* crow = c.data() + i * nb;
    if (beta != 1.0) {
      for (std::int64_t j = 0; j < nb; ++j) crow[j] *= beta;
    }
    for (std::int64_t k = 0; k < nb; ++k) {
      const double aik = alpha * elem(a, nb, i, k, trans_a);
      if (aik == 0.0) continue;
      if (!trans_b) {
        const double* brow = b.data() + k * nb;
        for (std::int64_t j = 0; j < nb; ++j) crow[j] += aik * brow[j];
      } else {
        const double* bcol = b.data() + k;  // B^T row k = B column k
        for (std::int64_t j = 0; j < nb; ++j) crow[j] += aik * bcol[j * nb];
      }
    }
  }
}

// The three trailing-update kernels hold a kRows x kCols block of C in
// vector registers across the whole k loop.  Every element of C still sees
// exactly the scalar operation sequence of the plain loop nest (k ascending,
// one rounded product and one rounded add or subtract per step), so the
// results are bit-identical to it on every ISA; that needs -ffp-contract=off,
// which the top-level build sets, or the compiler fuses them into FMAs.
// target_clones compiles the one body per ISA and the loader picks the
// widest variant the CPU has.  Rows and columns that do not fill a block
// run the plain loop.
#if defined(__x86_64__) && defined(__GNUC__)
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

inline const Vec8& vec_at(const double* p) {
  return *reinterpret_cast<const Vec8*>(p);
}
inline Vec8& vec_at(double* p) { return *reinterpret_cast<Vec8*>(p); }

/// Copies rows j .. j + kCols - 1 of `m` transposed into `slab`:
/// slab[k * kCols + jj] = m[(j + jj) * nb + k], so the lanes of a
/// dot-product block run over j.
void pack_transposed(const double* m, std::int64_t nb, std::int64_t j,
                     double* slab) {
  for (std::int64_t jj = 0; jj < kCols; ++jj) {
    const double* row = m + (j + jj) * nb;
    for (std::int64_t k = 0; k < nb; ++k) slab[k * kCols + jj] = row[k];
  }
}

/// acc[r] = the dot products of row i + r of the nb x nb matrix `a` with
/// the kCols rows packed in `slab`, each summed from 0.0 in k order.
/// Inlined so that each ISA variant of a caller gets its own copy.
[[gnu::always_inline]] inline void dot_block(const double* a, std::int64_t nb,
                                             std::int64_t i,
                                             const double* slab,
                                             Vec8 (&acc)[kRows][2]) {
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

}  // namespace

ANYBLOCK_TILE_CLONES
void gemm_update(std::span<const double> a, std::span<const double> b,
                 std::span<double> c, std::int64_t nb) {
  // C -= A*B: per element, k ascending, c -= a_ik * b_kj.
  const std::int64_t rows = nb - nb % kRows;
  const std::int64_t cols = nb - nb % kCols;
  for (std::int64_t i = 0; i < rows; i += kRows) {
    for (std::int64_t j = 0; j < cols; j += kCols) {
      Vec8 acc[kRows][2];
      for (std::int64_t r = 0; r < kRows; ++r) {
        acc[r][0] = vec_at(c.data() + (i + r) * nb + j);
        acc[r][1] = vec_at(c.data() + (i + r) * nb + j + 8);
      }
      for (std::int64_t k = 0; k < nb; ++k) {
        const Vec8 b0 = vec_at(b.data() + k * nb + j);
        const Vec8 b1 = vec_at(b.data() + k * nb + j + 8);
        for (std::int64_t r = 0; r < kRows; ++r) {
          const double aik = a[static_cast<std::size_t>((i + r) * nb + k)];
          acc[r][0] -= aik * b0;
          acc[r][1] -= aik * b1;
        }
      }
      for (std::int64_t r = 0; r < kRows; ++r) {
        vec_at(c.data() + (i + r) * nb + j) = acc[r][0];
        vec_at(c.data() + (i + r) * nb + j + 8) = acc[r][1];
      }
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
    pack_transposed(b.data(), nb, j, slab.data());
    for (std::int64_t i = 0; i < rows; i += kRows) {
      Vec8 acc[kRows][2];
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
    pack_transposed(a.data(), nb, j, slab.data());
    // Row blocks above row j hold nothing on or below the diagonal.
    for (std::int64_t i = j; i < rows; i += kRows) {
      Vec8 acc[kRows][2];
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

bool getrf_nopiv(std::span<double> a, std::int64_t nb) {
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

bool potrf_lower(std::span<double> a, std::int64_t nb) {
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

void trsm_right_upper(std::span<const double> u, std::span<double> b,
                      std::int64_t nb) {
  // Solve X * U = B row by row: x_j = (b_j - sum_{k<j} x_k u_kj) / u_jj.
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

void trsm_left_lower_unit(std::span<const double> l, std::span<double> b,
                          std::int64_t nb) {
  // Solve L * X = B with unit diagonal: x_i = b_i - sum_{k<i} l_ik x_k,
  // processed by rows so the inner loop is stride-1 over columns.
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

void trsm_right_lower_trans(std::span<const double> l, std::span<double> b,
                            std::int64_t nb) {
  // Solve X * L^T = B: x_j = (b_j - sum_{k<j} x_k l_jk) / l_jj.
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
