#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

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

TEST(Kernels, GeneralGemmAlphaBetaTranspose) {
  Rng rng(3);
  const auto a = random_tile(rng);
  const auto b = random_tile(rng);
  auto c = random_tile(rng);
  const DenseMatrix expected = [&] {
    DenseMatrix prod = DenseMatrix::multiply(as_dense(a).transposed(),
                                             as_dense(b).transposed());
    DenseMatrix e = as_dense(c);
    for (std::int64_t i = 0; i < kNb; ++i)
      for (std::int64_t j = 0; j < kNb; ++j)
        e(i, j) = 0.5 * prod(i, j) + 2.0 * e(i, j);
    return e;
  }();
  gemm(0.5, a, /*trans_a=*/true, b, /*trans_b=*/true, 2.0, c, kNb);
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

/// One ISA variant of the vectorized kernels.
struct Variant {
  std::string isa;
  UpdateKernel gemm_update;
  UpdateKernel gemm_update_trans_b;
  SyrkKernel syrk_update_lower;
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
                   syrk_update_lower_resolver()});
  };
  if (avx512f) resolve("avx512f", ~0u);
  if (avx2) resolve("avx2", ~kAvx512f);
  resolve("default", ~(kAvx512f | kAvx2));
  __cpu_model.features[0] = features;
  return out;
}
#else
std::vector<Variant> host_variants() {
  return {{"portable", &gemm_update, &gemm_update_trans_b, &syrk_update_lower}};
}
#endif

/// The variants, checked to be distinct code and announced once.
const std::vector<Variant>& variants() {
  static const std::vector<Variant> found = [] {
    std::vector<Variant> v = host_variants();
    std::set<UpdateKernel> distinct;
    std::string names;
    for (const Variant& variant : v) {
      distinct.insert(variant.gemm_update);
      names += (names.empty() ? "" : " ") + variant.isa;
    }
    EXPECT_EQ(distinct.size(), v.size()) << "variants resolve to one body";
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
