// Tile kernels: the task bodies of the tiled LU and Cholesky factorizations.
//
// All kernels operate on row-major nb x nb tiles passed as spans; each call
// corresponds to exactly one task in the task-based execution model
// (GETRF/TRSM/GEMM for LU; POTRF/TRSM/SYRK/GEMM for Cholesky).  The paper
// uses MKL (see DESIGN.md substitutions).
//
// The three trailing updates (gemm_update, gemm_update_trans_b and
// syrk_update_lower), the two factorizations (getrf_nopiv, potrf_lower) and
// the three panel solves (trsm_*) are register-blocked vector code built for
// AVX-512F, AVX2 and baseline x86-64 and picked by the CPU at load time.
// Their results are bit-identical to plain loop nests on every variant:
// each output element sees the same rounded products, added or subtracted
// in the same order, and the same final division, reciprocal multiply or
// square root (documented per kernel below).  Distributed, task-based and
// sequential factorizations therefore agree bit for bit on any host.  The
// matrix-vector kernels (gemv_*, trsv_*) are plain loop nests.
#pragma once

#include <cstdint>
#include <span>

namespace anyblock::linalg {

/// C := C - A * B (the LU trailing update).  Per element: k ascending,
/// c -= a_ik * b_kj.
void gemm_update(std::span<const double> a, std::span<const double> b,
                 std::span<double> c, std::int64_t nb);

/// C := C - A * B^T (the Cholesky trailing update).  Per element: the dot
/// product of row i of A and row j of B summed from 0.0 in k order, then
/// one subtract.
void gemm_update_trans_b(std::span<const double> a, std::span<const double> b,
                         std::span<double> c, std::int64_t nb);

/// C := C - A * A^T on the lower triangle only (SYRK, Cholesky diagonal
/// update), per element as gemm_update_trans_b.  The strict upper triangle
/// of C is left untouched.
void syrk_update_lower(std::span<const double> a, std::span<double> c,
                       std::int64_t nb);

/// In-place LU without pivoting: A -> L\U (unit lower below the diagonal,
/// upper including the diagonal).  Per element, a_ij -= l_ik * u_kj for
/// k < min(i, j) in order; below the diagonal the result is then multiplied
/// by inv = 1 / u_jj.  Returns false on a (near-)zero pivot, |u_jj| <
/// 1e-300: on exactly the inputs where the right-looking loop that stops at
/// the first such pivot does.  After false the tile's contents are
/// unspecified.
bool getrf_nopiv(std::span<double> a, std::int64_t nb);

/// In-place lower Cholesky: the lower triangle of A becomes L.  Per
/// element, a_ij -= l_ik * l_jk for k < j in order; then l_jj = sqrt(a_jj)
/// on the diagonal and l_ij = a_ij * (1 / l_jj) below it.  The strict
/// upper triangle is never written and does not affect L.  Returns false
/// if A is not positive definite, a_jj <= 0 before its square root: on
/// exactly the inputs where the column-by-column loop that stops there
/// does.  After false the lower triangle's contents are unspecified.
bool potrf_lower(std::span<double> a, std::int64_t nb);

/// B := B * U^{-1} with U the non-unit upper factor of a GETRF'd tile
/// (LU column-panel solve).  Per element, b_ij -= x_ik * u_kj for k < j in
/// order, then one division by u_jj (not a reciprocal multiply).
void trsm_right_upper(std::span<const double> u, std::span<double> b,
                      std::int64_t nb);

/// B := L^{-1} * B with L the unit lower factor of a GETRF'd tile
/// (LU row-panel solve).  Per element, b_ij -= l_ik * x_kj for k < i in
/// order, skipping every l_ik == 0 (a zero product would still turn a -0
/// into +0).
void trsm_left_lower_unit(std::span<const double> l, std::span<double> b,
                          std::int64_t nb);

/// B := B * L^{-T} with L a non-unit lower Cholesky factor
/// (Cholesky panel solve); only the lower triangle of L is read.  Per
/// element, b_ij -= x_ik * l_jk for k < j in order, then one division by
/// l_jj.
void trsm_right_lower_trans(std::span<const double> l, std::span<double> b,
                            std::int64_t nb);

/// Vector kernels for the tiled triangular solves (one tile x one segment).
/// y := y - A * x (A nb x nb, x/y length nb).
void gemv_update(std::span<const double> a, std::span<const double> x,
                 std::span<double> y, std::int64_t nb);
/// y := y - A^T * x.
void gemv_update_trans(std::span<const double> a, std::span<const double> x,
                       std::span<double> y, std::int64_t nb);
/// x := L^{-1} x with L the unit lower part of a packed LU tile.
void trsv_lower_unit(std::span<const double> a, std::span<double> x,
                     std::int64_t nb);
/// x := U^{-1} x with U the upper part of a packed LU tile.
void trsv_upper(std::span<const double> a, std::span<double> x,
                std::int64_t nb);
/// x := L^{-1} x with L a non-unit lower (Cholesky) tile.
void trsv_lower(std::span<const double> a, std::span<double> x,
                std::int64_t nb);
/// x := L^{-T} x with L a non-unit lower (Cholesky) tile.
void trsv_lower_trans(std::span<const double> a, std::span<double> x,
                      std::int64_t nb);

/// Flop counts used for GFlop/s reporting (LAPACK conventions).
double gemm_flops(std::int64_t nb);
double syrk_flops(std::int64_t nb);
double trsm_flops(std::int64_t nb);
double getrf_flops(std::int64_t nb);
double potrf_flops(std::int64_t nb);
/// Whole-factorization flop counts for an n x n matrix.
double lu_total_flops(std::int64_t n);
double cholesky_total_flops(std::int64_t n);

}  // namespace anyblock::linalg
