#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/generators.hpp"
#include "linalg/oracle.hpp"
#include "util/rng.hpp"

namespace anyblock::linalg {
namespace {

constexpr std::int64_t kNb = 8;

std::vector<double> random_tile(Rng& rng, std::int64_t nb = kNb) {
  std::vector<double> tile(static_cast<std::size_t>(nb * nb));
  for (double& v : tile) v = 2.0 * rng.uniform() - 1.0;
  return tile;
}

std::vector<double> diag_dominant_tile(Rng& rng, std::int64_t nb = kNb) {
  auto tile = random_tile(rng, nb);
  for (std::int64_t i = 0; i < nb; ++i)
    tile[static_cast<std::size_t>(i * nb + i)] += static_cast<double>(nb);
  return tile;
}

DenseMatrix as_dense(const std::vector<double>& tile, std::int64_t nb = kNb) {
  DenseMatrix m(nb, nb);
  for (std::int64_t i = 0; i < nb; ++i)
    for (std::int64_t j = 0; j < nb; ++j)
      m(i, j) = tile[static_cast<std::size_t>(i * nb + j)];
  return m;
}

TEST(Kernels, GemmUpdateMatchesReference) {
  Rng rng(1);
  const auto a = random_tile(rng);
  const auto b = random_tile(rng);
  auto c = random_tile(rng);
  const DenseMatrix expected = [&] {
    DenseMatrix e = as_dense(c);
    e.subtract(DenseMatrix::multiply(as_dense(a), as_dense(b)));
    return e;
  }();
  gemm_update(a, b, c, kNb);
  const DenseMatrix got = as_dense(c);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(got(i, j), expected(i, j), 1e-12);
}

TEST(Kernels, GemmUpdateTransBMatchesReference) {
  Rng rng(2);
  const auto a = random_tile(rng);
  const auto b = random_tile(rng);
  auto c = random_tile(rng);
  const DenseMatrix expected = [&] {
    DenseMatrix e = as_dense(c);
    e.subtract(DenseMatrix::multiply(as_dense(a), as_dense(b).transposed()));
    return e;
  }();
  gemm_update_trans_b(a, b, c, kNb);
  const DenseMatrix got = as_dense(c);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(got(i, j), expected(i, j), 1e-12);
}

TEST(Kernels, SyrkUpdatesOnlyLowerTriangle) {
  Rng rng(4);
  const auto a = random_tile(rng);
  auto c = random_tile(rng);
  const auto c_before = c;
  syrk_update_lower(a, c, kNb);
  const DenseMatrix aat =
      DenseMatrix::multiply(as_dense(a), as_dense(a).transposed());
  for (std::int64_t i = 0; i < kNb; ++i) {
    for (std::int64_t j = 0; j < kNb; ++j) {
      const auto idx = static_cast<std::size_t>(i * kNb + j);
      if (j <= i) {
        EXPECT_NEAR(c[idx], c_before[idx] - aat(i, j), 1e-12);
      } else {
        EXPECT_DOUBLE_EQ(c[idx], c_before[idx]);  // untouched
      }
    }
  }
}

TEST(Kernels, GetrfReconstructs) {
  Rng rng(5);
  auto a = diag_dominant_tile(rng);
  const DenseMatrix original = as_dense(a);
  ASSERT_TRUE(getrf_nopiv(a, kNb));
  // Rebuild L (unit lower) * U (upper) and compare with the original.
  DenseMatrix l(kNb, kNb);
  DenseMatrix u(kNb, kNb);
  for (std::int64_t i = 0; i < kNb; ++i) {
    l(i, i) = 1.0;
    for (std::int64_t j = 0; j < i; ++j)
      l(i, j) = a[static_cast<std::size_t>(i * kNb + j)];
    for (std::int64_t j = i; j < kNb; ++j)
      u(i, j) = a[static_cast<std::size_t>(i * kNb + j)];
  }
  const DenseMatrix lu = DenseMatrix::multiply(l, u);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(lu(i, j), original(i, j), 1e-10);
}

TEST(Kernels, GetrfFailsOnZeroPivot) {
  std::vector<double> a(static_cast<std::size_t>(kNb * kNb), 0.0);
  EXPECT_FALSE(getrf_nopiv(a, kNb));
}

TEST(Kernels, PotrfReconstructs) {
  Rng rng(6);
  // Symmetric diagonally dominant tile.
  std::vector<double> a(static_cast<std::size_t>(kNb * kNb));
  for (std::int64_t i = 0; i < kNb; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      const double v = 2.0 * rng.uniform() - 1.0;
      a[static_cast<std::size_t>(i * kNb + j)] = v;
      a[static_cast<std::size_t>(j * kNb + i)] = v;
    }
    a[static_cast<std::size_t>(i * kNb + i)] += static_cast<double>(kNb);
  }
  const DenseMatrix original = as_dense(a);
  ASSERT_TRUE(potrf_lower(a, kNb));
  DenseMatrix l(kNb, kNb);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j <= i; ++j)
      l(i, j) = a[static_cast<std::size_t>(i * kNb + j)];
  const DenseMatrix llt = DenseMatrix::multiply(l, l.transposed());
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(llt(i, j), original(i, j), 1e-10);
}

TEST(Kernels, PotrfRejectsIndefinite) {
  std::vector<double> a(static_cast<std::size_t>(kNb * kNb), 0.0);
  a[0] = -1.0;
  EXPECT_FALSE(potrf_lower(a, kNb));
}

TEST(Kernels, TrsmRightUpperSolves) {
  Rng rng(7);
  auto lu = diag_dominant_tile(rng);
  ASSERT_TRUE(getrf_nopiv(lu, kNb));
  auto b = random_tile(rng);
  const DenseMatrix b0 = as_dense(b);
  trsm_right_upper(lu, b, kNb);
  // Check X * U == B.
  DenseMatrix u(kNb, kNb);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = i; j < kNb; ++j)
      u(i, j) = lu[static_cast<std::size_t>(i * kNb + j)];
  const DenseMatrix xu = DenseMatrix::multiply(as_dense(b), u);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(xu(i, j), b0(i, j), 1e-10);
}

TEST(Kernels, TrsmLeftLowerUnitSolves) {
  Rng rng(8);
  auto lu = diag_dominant_tile(rng);
  ASSERT_TRUE(getrf_nopiv(lu, kNb));
  auto b = random_tile(rng);
  const DenseMatrix b0 = as_dense(b);
  trsm_left_lower_unit(lu, b, kNb);
  DenseMatrix l(kNb, kNb);
  for (std::int64_t i = 0; i < kNb; ++i) {
    l(i, i) = 1.0;
    for (std::int64_t j = 0; j < i; ++j)
      l(i, j) = lu[static_cast<std::size_t>(i * kNb + j)];
  }
  const DenseMatrix lx = DenseMatrix::multiply(l, as_dense(b));
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(lx(i, j), b0(i, j), 1e-10);
}

TEST(Kernels, TrsmRightLowerTransSolves) {
  Rng rng(9);
  // Cholesky factor of a symmetric dominant tile.
  std::vector<double> a(static_cast<std::size_t>(kNb * kNb));
  for (std::int64_t i = 0; i < kNb; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      const double v = 2.0 * rng.uniform() - 1.0;
      a[static_cast<std::size_t>(i * kNb + j)] = v;
      a[static_cast<std::size_t>(j * kNb + i)] = v;
    }
    a[static_cast<std::size_t>(i * kNb + i)] += static_cast<double>(kNb);
  }
  ASSERT_TRUE(potrf_lower(a, kNb));
  auto b = random_tile(rng);
  const DenseMatrix b0 = as_dense(b);
  trsm_right_lower_trans(a, b, kNb);
  DenseMatrix l(kNb, kNb);
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j <= i; ++j)
      l(i, j) = a[static_cast<std::size_t>(i * kNb + j)];
  const DenseMatrix xlt = DenseMatrix::multiply(as_dense(b), l.transposed());
  for (std::int64_t i = 0; i < kNb; ++i)
    for (std::int64_t j = 0; j < kNb; ++j)
      EXPECT_NEAR(xlt(i, j), b0(i, j), 1e-10);
}

using UpdateKernel = void (*)(std::span<const double>, std::span<const double>,
                             std::span<double>, std::int64_t);
using SyrkKernel = void (*)(std::span<const double>, std::span<double>,
                            std::int64_t);
using SolveKernel = SyrkKernel;
using FactorKernel = bool (*)(std::span<double>, std::int64_t);

/// One ISA variant of the vectorized kernels.
struct Variant {
  std::string isa;
  UpdateKernel gemm_update;
  UpdateKernel gemm_update_trans_b;
  SyrkKernel syrk_update_lower;
  SolveKernel trsm_right_upper;
  SolveKernel trsm_left_lower_unit;
  SolveKernel trsm_right_lower_trans;
  FactorKernel getrf_nopiv;
  FactorKernel potrf_lower;
};

#if defined(__x86_64__) && defined(__GNUC__)
// target_clones builds each vectorized kernel once per ISA, and the loader
// binds the kernel's name to the widest variant the CPU has.  GCC also emits
// one resolver per kernel that picks a variant from libgcc's CPU feature
// bits; called with bits masked off, it returns the narrower variants, so
// the test can run every variant the host can execute, not only the bound
// one.  The resolvers are named after the Itanium-mangled kernel names.
extern "C" {
struct CpuModel {
  unsigned vendor;
  unsigned type;
  unsigned subtype;
  unsigned features[1];
};
extern CpuModel __cpu_model;  // libgcc's, read by every resolver
}
extern "C" UpdateKernel gemm_update_resolver() __asm__(
    "_ZN8anyblock6linalg11gemm_updateESt4spanIKdLm18446744073709551615EES3_"
    "S1_IdLm18446744073709551615EEl.resolver");
extern "C" UpdateKernel gemm_update_trans_b_resolver() __asm__(
    "_ZN8anyblock6linalg19gemm_update_trans_bESt4spanIKdLm18446744073709551615"
    "EES3_S1_IdLm18446744073709551615EEl.resolver");
extern "C" SyrkKernel syrk_update_lower_resolver() __asm__(
    "_ZN8anyblock6linalg17syrk_update_lowerESt4spanIKdLm18446744073709551615EE"
    "S1_IdLm18446744073709551615EEl.resolver");
extern "C" SolveKernel trsm_right_upper_resolver() __asm__(
    "_ZN8anyblock6linalg16trsm_right_upperESt4spanIKdLm18446744073709551615EE"
    "S1_IdLm18446744073709551615EEl.resolver");
extern "C" SolveKernel trsm_left_lower_unit_resolver() __asm__(
    "_ZN8anyblock6linalg20trsm_left_lower_unitESt4spanIKdLm18446744073709551615"
    "EES1_IdLm18446744073709551615EEl.resolver");
extern "C" SolveKernel trsm_right_lower_trans_resolver() __asm__(
    "_ZN8anyblock6linalg22trsm_right_lower_transESt4spanIKdLm18446744073709551"
    "615EES1_IdLm18446744073709551615EEl.resolver");
extern "C" FactorKernel getrf_nopiv_resolver() __asm__(
    "_ZN8anyblock6linalg11getrf_nopivESt4spanIdLm18446744073709551615EEl"
    ".resolver");
extern "C" FactorKernel potrf_lower_resolver() __asm__(
    "_ZN8anyblock6linalg11potrf_lowerESt4spanIdLm18446744073709551615EEl"
    ".resolver");

// Bit positions of FEATURE_AVX2 and FEATURE_AVX512F in libgcc's
// enum processor_features; the test checks them against
// __builtin_cpu_supports before relying on them.
constexpr unsigned kAvx2 = 1u << 10;
constexpr unsigned kAvx512f = 1u << 15;

std::vector<Variant> host_variants() {
  __builtin_cpu_init();
  const bool avx512f = __builtin_cpu_supports("avx512f") != 0;
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  const unsigned features = __cpu_model.features[0];
  EXPECT_EQ((features & kAvx512f) != 0, avx512f) << "libgcc layout changed";
  EXPECT_EQ((features & kAvx2) != 0, avx2) << "libgcc layout changed";
  std::vector<Variant> out;
  const auto resolve = [&](const char* isa, unsigned mask) {
    __cpu_model.features[0] = features & mask;
    out.push_back({isa, gemm_update_resolver(), gemm_update_trans_b_resolver(),
                   syrk_update_lower_resolver(), trsm_right_upper_resolver(),
                   trsm_left_lower_unit_resolver(),
                   trsm_right_lower_trans_resolver(), getrf_nopiv_resolver(),
                   potrf_lower_resolver()});
  };
  if (avx512f) resolve("avx512f", ~0u);
  if (avx2) resolve("avx2", ~kAvx512f);
  resolve("default", ~(kAvx512f | kAvx2));
  __cpu_model.features[0] = features;
  return out;
}
#else
std::vector<Variant> host_variants() {
  return {{"portable", &gemm_update, &gemm_update_trans_b, &syrk_update_lower,
           &trsm_right_upper, &trsm_left_lower_unit, &trsm_right_lower_trans,
           &getrf_nopiv, &potrf_lower}};
}
#endif

/// The variants, checked to be distinct code and announced once.
const std::vector<Variant>& variants() {
  static const std::vector<Variant> found = [] {
    std::vector<Variant> v = host_variants();
    std::set<UpdateKernel> updates;
    std::set<SolveKernel> solves;
    std::set<FactorKernel> factors;
    std::string names;
    for (const Variant& variant : v) {
      updates.insert(variant.gemm_update);
      solves.insert(variant.trsm_right_upper);
      factors.insert(variant.getrf_nopiv);
      names += (names.empty() ? "" : " ") + variant.isa;
    }
    EXPECT_EQ(updates.size(), v.size()) << "variants resolve to one body";
    EXPECT_EQ(solves.size(), v.size()) << "variants resolve to one body";
    EXPECT_EQ(factors.size(), v.size()) << "variants resolve to one body";
    std::printf("[ variants ] %s\n", names.c_str());
    ::testing::Test::RecordProperty("isa_variants", names);
    return v;
  }();
  return found;
}

const std::vector<std::int64_t> kOracleSizes = {1, 7, 16, 17, 96, 128, 256};

/// Random [-1, 1] entries with every third one +0.0 and every third -0.0.
std::vector<double> signed_zero_tile(Rng& rng, std::int64_t nb) {
  auto tile = random_tile(rng, nb);
  for (std::size_t e = 0; e < tile.size(); ++e)
    if (e % 3 != 2) tile[e] = e % 3 == 0 ? 0.0 : -0.0;
  return tile;
}

/// Input tiles {a, b, c}: random, then with exact and signed zeros.
std::vector<std::vector<std::vector<double>>> oracle_inputs(std::int64_t nb) {
  Rng rng(static_cast<std::uint64_t>(100 + nb));
  std::vector<std::vector<std::vector<double>>> inputs;
  inputs.push_back({random_tile(rng, nb), random_tile(rng, nb),
                    random_tile(rng, nb)});
  inputs.push_back({signed_zero_tile(rng, nb), random_tile(rng, nb),
                    signed_zero_tile(rng, nb)});
  inputs.push_back({random_tile(rng, nb), signed_zero_tile(rng, nb),
                    signed_zero_tile(rng, nb)});
  return inputs;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  if (std::memcmp(got.data(), expected.data(),
                  got.size() * sizeof(double)) == 0)
    return;
  std::size_t e = 0;
  while (std::memcmp(&got[e], &expected[e], sizeof(double)) == 0) ++e;
  ADD_FAILURE() << "first differing element " << e << ": " << got[e]
                << " vs " << expected[e];
}

TEST(KernelOracle, GemmUpdateBitIdenticalOnEveryVariant) {
  for (const Variant& variant : variants())
    for (const std::int64_t nb : kOracleSizes)
      for (const auto& in : oracle_inputs(nb)) {
        SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
        auto expected = in[2];
        oracle::gemm_update(in[0], in[1], expected, nb);
        auto got = in[2];
        variant.gemm_update(in[0], in[1], got, nb);
        expect_bit_identical(got, expected);
      }
}

TEST(KernelOracle, GemmUpdateTransBBitIdenticalOnEveryVariant) {
  for (const Variant& variant : variants())
    for (const std::int64_t nb : kOracleSizes)
      for (const auto& in : oracle_inputs(nb)) {
        SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
        auto expected = in[2];
        oracle::gemm_update_trans_b(in[0], in[1], expected, nb);
        auto got = in[2];
        variant.gemm_update_trans_b(in[0], in[1], got, nb);
        expect_bit_identical(got, expected);
      }
}

TEST(KernelOracle, SyrkUpdateLowerBitIdenticalOnEveryVariant) {
  for (const Variant& variant : variants())
    for (const std::int64_t nb : kOracleSizes)
      for (const auto& in : oracle_inputs(nb))
        for (const auto& a : {in[0], in[1]}) {
          SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
          auto expected = in[2];
          oracle::syrk_update_lower(a, expected, nb);
          auto got = in[2];
          variant.syrk_update_lower(a, got, nb);
          expect_bit_identical(got, expected);
        }
}

/// A symmetric positive definite tile (dominant diagonal) whose strict
/// upper triangle holds unrelated values: POTRF must neither read nor
/// write it.  With `signed_zeros`, two in three entries below the diagonal
/// are +0.0 or -0.0.
std::vector<double> spd_tile(Rng& rng, std::int64_t nb, bool signed_zeros) {
  auto tile = signed_zeros ? signed_zero_tile(rng, nb) : random_tile(rng, nb);
  for (std::int64_t i = 0; i < nb; ++i)
    tile[static_cast<std::size_t>(i * nb + i)] =
        static_cast<double>(nb) + rng.uniform();
  return tile;
}

/// Tiles factored by the oracle, for the solves: an LU tile, the same LU
/// tile with +0.0 or -0.0 in two in three entries of its strict lower
/// triangle and in all of it on every fourth row, and a Cholesky tile with
/// an unrelated strict upper triangle.
struct Factors {
  std::vector<double> lu;
  std::vector<double> lu_zeros;
  std::vector<double> chol;
};

Factors oracle_factors(std::int64_t nb) {
  Rng rng(static_cast<std::uint64_t>(200 + nb));
  Factors f{diag_dominant_tile(rng, nb), {}, spd_tile(rng, nb, false)};
  EXPECT_TRUE(oracle::getrf_nopiv(f.lu, nb));
  EXPECT_TRUE(oracle::potrf_lower(f.chol, nb));
  f.lu_zeros = f.lu;
  for (std::int64_t i = 0; i < nb; ++i)
    for (std::int64_t k = 0; k < i; ++k) {
      const auto e = static_cast<std::size_t>(i * nb + k);
      if (e % 3 != 2 || i % 4 == 1) f.lu_zeros[e] = k % 2 == 0 ? 0.0 : -0.0;
    }
  return f;
}

/// Right-hand sides for the solves: random, with exact and signed zeros,
/// and -0.0 everywhere but a random first row.  In the last one, a zero
/// l_i0 times a negative b_0j subtracted from b_ij = -0.0 would give +0.0,
/// so a left solve that does not skip zero multipliers differs.
std::vector<std::vector<double>> oracle_rhs(std::int64_t nb) {
  Rng rng(static_cast<std::uint64_t>(300 + nb));
  auto negative_zeros = random_tile(rng, nb);
  std::fill(negative_zeros.begin() + nb, negative_zeros.end(), -0.0);
  return {random_tile(rng, nb), signed_zero_tile(rng, nb), negative_zeros};
}

TEST(KernelOracle, TrsmRightUpperBitIdenticalOnEveryVariant) {
  for (const std::int64_t nb : kOracleSizes) {
    const Factors f = oracle_factors(nb);
    for (const auto& b : oracle_rhs(nb)) {
      auto expected = b;
      oracle::trsm_right_upper(f.lu, expected, nb);
      for (const Variant& variant : variants()) {
        SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
        auto got = b;
        variant.trsm_right_upper(f.lu, got, nb);
        expect_bit_identical(got, expected);
      }
    }
  }
}

TEST(KernelOracle, TrsmLeftLowerUnitBitIdenticalOnEveryVariant) {
  for (const std::int64_t nb : kOracleSizes) {
    const Factors f = oracle_factors(nb);
    for (const auto& l : {f.lu, f.lu_zeros})
      for (const auto& b : oracle_rhs(nb)) {
        auto expected = b;
        oracle::trsm_left_lower_unit(l, expected, nb);
        for (const Variant& variant : variants()) {
          SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
          auto got = b;
          variant.trsm_left_lower_unit(l, got, nb);
          expect_bit_identical(got, expected);
        }
      }
  }
}

TEST(KernelOracle, TrsmRightLowerTransBitIdenticalOnEveryVariant) {
  for (const std::int64_t nb : kOracleSizes) {
    const Factors f = oracle_factors(nb);
    for (const auto& b : oracle_rhs(nb)) {
      auto expected = b;
      oracle::trsm_right_lower_trans(f.chol, expected, nb);
      for (const Variant& variant : variants()) {
        SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
        auto got = b;
        variant.trsm_right_lower_trans(f.chol, got, nb);
        expect_bit_identical(got, expected);
      }
    }
  }
}

TEST(KernelOracle, GetrfNopivBitIdenticalOnEveryVariant) {
  for (const std::int64_t nb : kOracleSizes) {
    Rng rng(static_cast<std::uint64_t>(400 + nb));
    auto zeros = signed_zero_tile(rng, nb);
    for (std::int64_t i = 0; i < nb; ++i)
      zeros[static_cast<std::size_t>(i * nb + i)] += static_cast<double>(nb);
    for (const auto& a : {diag_dominant_tile(rng, nb), zeros}) {
      auto expected = a;
      ASSERT_TRUE(oracle::getrf_nopiv(expected, nb));
      for (const Variant& variant : variants()) {
        SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
        auto got = a;
        EXPECT_TRUE(variant.getrf_nopiv(got, nb));
        expect_bit_identical(got, expected);
      }
    }
  }
}

TEST(KernelOracle, PotrfLowerBitIdenticalOnEveryVariant) {
  for (const std::int64_t nb : kOracleSizes) {
    Rng rng(static_cast<std::uint64_t>(500 + nb));
    for (const bool signed_zeros : {false, true}) {
      const auto a = spd_tile(rng, nb, signed_zeros);
      auto expected = a;
      ASSERT_TRUE(oracle::potrf_lower(expected, nb));
      for (const Variant& variant : variants()) {
        SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb));
        auto got = a;
        EXPECT_TRUE(variant.potrf_lower(got, nb));
        expect_bit_identical(got, expected);
      }
    }
  }
}

/// Columns at which the failure tests break a factorization: the first,
/// one inside the first 16-column block, both sides of its edge, the last.
std::vector<std::int64_t> failing_columns(std::int64_t nb) {
  std::set<std::int64_t> columns;
  for (const std::int64_t c : {std::int64_t{0}, std::int64_t{5},
                               std::int64_t{15}, std::int64_t{16}, nb - 1})
    if (c < nb) columns.insert(c);
  return {columns.begin(), columns.end()};
}

TEST(KernelOracle, GetrfNopivFailsWhereTheOracleFails) {
  // Row c of L and U is zero apart from u_cc, so pivot c is exactly
  // `pivot` whatever the columns before it did.  Below the tolerance the
  // factorization must fail at c; just above it, succeed bit for bit.
  for (const std::int64_t nb : kOracleSizes)
    for (const std::int64_t c : failing_columns(nb))
      for (const double pivot : {0.0, -0.0, 1e-301, -1e-301, 1e-299}) {
        Rng rng(static_cast<std::uint64_t>(600 + nb));
        auto a = diag_dominant_tile(rng, nb);
        for (std::int64_t j = 0; j < nb; ++j)
          a[static_cast<std::size_t>(c * nb + j)] = j == c ? pivot : 0.0;
        auto expected = a;
        const bool expected_ok = oracle::getrf_nopiv(expected, nb);
        EXPECT_EQ(expected_ok, std::abs(pivot) >= 1e-300);
        for (const Variant& variant : variants()) {
          SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb) +
                       " c=" + std::to_string(c));
          auto got = a;
          EXPECT_EQ(variant.getrf_nopiv(got, nb), expected_ok);
          if (expected_ok) expect_bit_identical(got, expected);
        }
      }
}

TEST(KernelOracle, PotrfLowerFailsWhereTheOracleFails) {
  // Row c of L is zero left of the diagonal, so the diagonal element of
  // column c is exactly `diagonal` when it is reached.  A non-positive one
  // must fail at c; a positive one passes c (the tile may still fail later,
  // wherever the oracle does).
  for (const std::int64_t nb : kOracleSizes)
    for (const std::int64_t c : failing_columns(nb))
      for (const double diagonal : {0.0, -0.0, -1.0, 1e-300, 1.0}) {
        Rng rng(static_cast<std::uint64_t>(700 + nb));
        auto a = spd_tile(rng, nb, false);
        for (std::int64_t k = 0; k < c; ++k)
          a[static_cast<std::size_t>(c * nb + k)] = 0.0;
        a[static_cast<std::size_t>(c * nb + c)] = diagonal;
        auto expected = a;
        const bool expected_ok = oracle::potrf_lower(expected, nb);
        if (diagonal <= 0.0) {
          EXPECT_FALSE(expected_ok);
        }
        for (const Variant& variant : variants()) {
          SCOPED_TRACE(variant.isa + " nb=" + std::to_string(nb) +
                       " c=" + std::to_string(c));
          auto got = a;
          EXPECT_EQ(variant.potrf_lower(got, nb), expected_ok);
          if (expected_ok) expect_bit_identical(got, expected);
        }
      }
}

TEST(KernelOracle, PublicNamesAreBitIdentical) {
  // Whichever variant the loader bound.
  for (const std::int64_t nb : kOracleSizes)
    for (const auto& in : oracle_inputs(nb)) {
      SCOPED_TRACE("nb=" + std::to_string(nb));
      auto expected = in[2];
      oracle::gemm_update(in[0], in[1], expected, nb);
      oracle::gemm_update_trans_b(in[0], in[1], expected, nb);
      oracle::syrk_update_lower(in[0], expected, nb);
      auto got = in[2];
      gemm_update(in[0], in[1], got, nb);
      gemm_update_trans_b(in[0], in[1], got, nb);
      syrk_update_lower(in[0], got, nb);
      expect_bit_identical(got, expected);
    }
  for (const std::int64_t nb : kOracleSizes) {
    SCOPED_TRACE("nb=" + std::to_string(nb));
    Rng rng(static_cast<std::uint64_t>(800 + nb));
    const auto lu_in = diag_dominant_tile(rng, nb);
    const auto chol_in = spd_tile(rng, nb, false);
    const auto b = random_tile(rng, nb);
    auto lu_expected = lu_in;
    auto chol_expected = chol_in;
    auto expected = b;
    ASSERT_TRUE(oracle::getrf_nopiv(lu_expected, nb));
    ASSERT_TRUE(oracle::potrf_lower(chol_expected, nb));
    oracle::trsm_right_upper(lu_expected, expected, nb);
    oracle::trsm_left_lower_unit(lu_expected, expected, nb);
    oracle::trsm_right_lower_trans(chol_expected, expected, nb);
    auto lu_got = lu_in;
    auto chol_got = chol_in;
    auto got = b;
    ASSERT_TRUE(getrf_nopiv(lu_got, nb));
    ASSERT_TRUE(potrf_lower(chol_got, nb));
    trsm_right_upper(lu_got, got, nb);
    trsm_left_lower_unit(lu_got, got, nb);
    trsm_right_lower_trans(chol_got, got, nb);
    expect_bit_identical(lu_got, lu_expected);
    expect_bit_identical(chol_got, chol_expected);
    expect_bit_identical(got, expected);
  }
}

TEST(Kernels, FlopCountsScaleCubically) {
  EXPECT_DOUBLE_EQ(gemm_flops(10), 2000.0);
  EXPECT_DOUBLE_EQ(trsm_flops(10), 1000.0);
  EXPECT_NEAR(getrf_flops(10), 2000.0 / 3.0, 1e-9);
  EXPECT_NEAR(potrf_flops(10), 1000.0 / 3.0, 1e-9);
  EXPECT_GT(syrk_flops(10), 1000.0);
  EXPECT_NEAR(lu_total_flops(100), 2.0 / 3.0 * 1e6, 1e-6);
  EXPECT_NEAR(cholesky_total_flops(100), 1e6 / 3.0, 1e-6);
}

}  // namespace
}  // namespace anyblock::linalg
