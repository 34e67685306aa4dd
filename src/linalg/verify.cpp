#include "linalg/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/kernels.hpp"

namespace anyblock::linalg {
namespace {

// The residuals are bit-identical to forming dense L and U (or L^T),
// multiplying them with the naive ikj product and subtracting A, for any
// finite factor:
//  * each product element is a sum of rounded products, taken from zero in
//    ascending k; gemm_update subtracts the same products in the same order
//    from a zero tile, and round-to-nearest is sign-symmetric, so the tile
//    holds the negated sum, and A plus it is the negated dense residual;
//  * products with a factor's zero triangles are +-0, and adding +-0 to a
//    sum that started at +0 never changes it, so those tiles are skipped;
//  * the squares are summed in global row-major order, as the dense norm
//    does.

void check_dims(const DenseMatrix& original, const TiledMatrix& factored) {
  if (original.rows() != factored.dim() || original.cols() != factored.dim())
    throw std::invalid_argument("residual: dimension mismatch");
}

enum class Triangle { kUnitLower, kUpper, kLower };

/// Diagonal tile i of `factored` with zeros outside the kept triangle (and a
/// unit diagonal for kUnitLower).
std::vector<double> diagonal_copy(const TiledMatrix& factored, std::int64_t i,
                                  Triangle part) {
  const std::int64_t nb = factored.tile_size();
  const auto tile = factored.tile(i, i);
  std::vector<double> out(tile.size(), 0.0);
  for (std::int64_t r = 0; r < nb; ++r)
    for (std::int64_t c = 0; c < nb; ++c) {
      const auto e = static_cast<std::size_t>(r * nb + c);
      const bool keep = part == Triangle::kUpper ? c >= r : c <= r;
      if (keep) out[e] = tile[e];
    }
  if (part == Triangle::kUnitLower)
    for (std::int64_t r = 0; r < nb; ++r)
      out[static_cast<std::size_t>(r * nb + r)] = 1.0;
  return out;
}

/// ||A + C||_F / ||A||_F with C = -(the factor product).  With `mirrored`,
/// only C's lower tiles and diagonal tiles are filled; an element above the
/// diagonal tiles reads its transpose.
double relative_norm(const DenseMatrix& original, const TiledMatrix& c,
                     bool mirrored) {
  const std::int64_t t = c.tiles();
  const std::int64_t nb = c.tile_size();
  double sum = 0.0;
  for (std::int64_t ti = 0; ti < t; ++ti)
    for (std::int64_t r = 0; r < nb; ++r) {
      const std::int64_t i = ti * nb + r;
      for (std::int64_t tj = 0; tj < t; ++tj) {
        const bool transposed = mirrored && tj > ti;
        const auto tile = transposed ? c.tile(tj, ti) : c.tile(ti, tj);
        for (std::int64_t s = 0; s < nb; ++s) {
          const double product = tile[static_cast<std::size_t>(
              transposed ? s * nb + r : r * nb + s)];
          const double v = original(i, tj * nb + s) + product;
          sum += v * v;
        }
      }
    }
  return std::sqrt(sum) / original.norm();
}

}  // namespace

double lu_residual(const DenseMatrix& original, const TiledMatrix& factored) {
  check_dims(original, factored);
  const std::int64_t t = factored.tiles();
  const std::int64_t nb = factored.tile_size();
  std::vector<std::vector<double>> unit_lower, upper;
  for (std::int64_t i = 0; i < t; ++i) {
    unit_lower.push_back(diagonal_copy(factored, i, Triangle::kUnitLower));
    upper.push_back(diagonal_copy(factored, i, Triangle::kUpper));
  }
  const auto l_tile = [&](std::int64_t i, std::int64_t l) {
    return l == i
               ? std::span<const double>(unit_lower[static_cast<std::size_t>(i)])
               : factored.tile(i, l);
  };
  const auto u_tile = [&](std::int64_t l, std::int64_t j) {
    return l == j ? std::span<const double>(upper[static_cast<std::size_t>(j)])
                  : factored.tile(l, j);
  };
  // C(i, j) = -sum_{l <= min(i, j)} L(i, l) * U(l, j).
  TiledMatrix c(t, nb);
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j)
      for (std::int64_t l = 0; l <= std::min(i, j); ++l)
        gemm_update(l_tile(i, l), u_tile(l, j), c.tile(i, j), nb);
  return relative_norm(original, c, /*mirrored=*/false);
}

double cholesky_residual(const DenseMatrix& original,
                         const TiledMatrix& factored) {
  check_dims(original, factored);
  const std::int64_t t = factored.tiles();
  const std::int64_t nb = factored.tile_size();
  std::vector<std::vector<double>> lower;
  for (std::int64_t i = 0; i < t; ++i)
    lower.push_back(diagonal_copy(factored, i, Triangle::kLower));
  const auto l_tile = [&](std::int64_t i, std::int64_t l) {
    return l == i ? std::span<const double>(lower[static_cast<std::size_t>(i)])
                  : factored.tile(i, l);
  };
  // C(i, j) = -sum_{l <= j} L(i, l) * L(j, l)^T for j <= i; an upper
  // element equals its transpose bit for bit, as the products commute.
  TiledMatrix c(t, nb);
  std::vector<double> packed(static_cast<std::size_t>(nb * nb));
  for (std::int64_t j = 0; j < t; ++j)
    for (std::int64_t l = 0; l <= j; ++l) {
      const auto lj = l_tile(j, l);
      for (std::int64_t r = 0; r < nb; ++r)
        for (std::int64_t s = 0; s < nb; ++s)
          packed[static_cast<std::size_t>(s * nb + r)] =
              lj[static_cast<std::size_t>(r * nb + s)];
      for (std::int64_t i = j; i < t; ++i)
        gemm_update(l_tile(i, l), packed, c.tile(i, j), nb);
    }
  return relative_norm(original, c, /*mirrored=*/true);
}

}  // namespace anyblock::linalg
