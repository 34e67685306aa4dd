// Micro benchmarks for the tile kernels, reporting achieved GFlop/s — the
// `--gflops` calibration input of the cluster simulator can be cross-checked
// against these numbers for any host.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "linalg/kernels.hpp"
#include "util/rng.hpp"

using namespace anyblock;

namespace {

std::vector<double> tile(std::int64_t nb, std::uint64_t seed,
                         bool dominant = false) {
  Rng rng(seed);
  std::vector<double> data(static_cast<std::size_t>(nb * nb));
  for (double& v : data) v = 2.0 * rng.uniform() - 1.0;
  if (dominant) {
    for (std::int64_t i = 0; i < nb; ++i)
      data[static_cast<std::size_t>(i * nb + i)] += static_cast<double>(nb);
  }
  return data;
}

std::vector<double> spd_tile(std::int64_t nb, std::uint64_t seed) {
  auto data = tile(nb, seed, true);
  for (std::int64_t i = 0; i < nb; ++i)
    for (std::int64_t j = 0; j < i; ++j)
      data[static_cast<std::size_t>(j * nb + i)] =
          data[static_cast<std::size_t>(i * nb + j)];
  return data;
}

/// Reports the GFlop/s of `flops` per iteration.
void set_gflops(benchmark::State& state, double flops) {
  state.counters["GFlops"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_GemmUpdate(benchmark::State& state) {
  const std::int64_t nb = state.range(0);
  const auto a = tile(nb, 1);
  const auto b = tile(nb, 2);
  auto c = tile(nb, 3);
  for (auto _ : state) {
    linalg::gemm_update(a, b, c, nb);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, linalg::gemm_flops(nb));
}
BENCHMARK(BM_GemmUpdate)->Arg(64)->Arg(128)->Arg(256);

void BM_SyrkUpdate(benchmark::State& state) {
  const std::int64_t nb = state.range(0);
  const auto a = tile(nb, 4);
  auto c = tile(nb, 5);
  for (auto _ : state) {
    linalg::syrk_update_lower(a, c, nb);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, linalg::syrk_flops(nb));
}
BENCHMARK(BM_SyrkUpdate)->Arg(64)->Arg(128)->Arg(256);

// The factorizations and solves work in place, so each iteration starts
// from a fresh copy of its input (the copy is timed too; it is O(nb^2)
// against the kernel's O(nb^3)).  Solving the same tile again and again
// would shrink it into denormals and then zeros.

void BM_GetrfNopiv(benchmark::State& state) {
  const std::int64_t nb = state.range(0);
  const auto original = tile(nb, 6, /*dominant=*/true);
  auto work = original;
  for (auto _ : state) {
    work = original;
    benchmark::DoNotOptimize(linalg::getrf_nopiv(work, nb));
    benchmark::ClobberMemory();
  }
  set_gflops(state, linalg::getrf_flops(nb));
}
BENCHMARK(BM_GetrfNopiv)->Arg(64)->Arg(128)->Arg(256);

void BM_PotrfLower(benchmark::State& state) {
  const std::int64_t nb = state.range(0);
  const auto original = spd_tile(nb, 7);
  auto work = original;
  for (auto _ : state) {
    work = original;
    benchmark::DoNotOptimize(linalg::potrf_lower(work, nb));
    benchmark::ClobberMemory();
  }
  set_gflops(state, linalg::potrf_flops(nb));
}
BENCHMARK(BM_PotrfLower)->Arg(64)->Arg(128)->Arg(256);

using SolveKernel = void (*)(std::span<const double>, std::span<double>,
                             std::int64_t);

/// Times `solve` with the factor of `factor` applied to a random tile.
void bench_solve(benchmark::State& state, SolveKernel solve,
                 bool (*factor)(std::span<double>, std::int64_t),
                 std::vector<double> a) {
  const std::int64_t nb = state.range(0);
  if (!factor(a, nb)) {
    state.SkipWithError("factorization failed");
    return;
  }
  const auto original = tile(nb, 9);
  auto b = original;
  for (auto _ : state) {
    b = original;
    solve(a, b, nb);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, linalg::trsm_flops(nb));
}

void BM_TrsmRightUpper(benchmark::State& state) {
  bench_solve(state, &linalg::trsm_right_upper, &linalg::getrf_nopiv,
              tile(state.range(0), 8, /*dominant=*/true));
}
BENCHMARK(BM_TrsmRightUpper)->Arg(64)->Arg(128)->Arg(256);

void BM_TrsmLeftLowerUnit(benchmark::State& state) {
  bench_solve(state, &linalg::trsm_left_lower_unit, &linalg::getrf_nopiv,
              tile(state.range(0), 8, /*dominant=*/true));
}
BENCHMARK(BM_TrsmLeftLowerUnit)->Arg(64)->Arg(128)->Arg(256);

void BM_TrsmRightLowerTrans(benchmark::State& state) {
  bench_solve(state, &linalg::trsm_right_lower_trans, &linalg::potrf_lower,
              spd_tile(state.range(0), 10));
}
BENCHMARK(BM_TrsmRightLowerTrans)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
