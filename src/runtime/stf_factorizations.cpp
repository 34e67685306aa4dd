#include "runtime/stf_factorizations.hpp"

#include <atomic>
#include <vector>

#include "linalg/kernels.hpp"

namespace anyblock::runtime {
namespace {

/// One engine handle per tile, registered up front.
std::vector<HandleId> register_tiles(TaskEngine& engine, std::int64_t t) {
  std::vector<HandleId> handles(static_cast<std::size_t>(t * t));
  for (auto& h : handles) h = engine.register_data();
  return handles;
}

}  // namespace

bool stf_lu_nopiv(TaskEngine& engine, linalg::TiledMatrix& a) {
  const std::int64_t t = a.tiles();
  const std::int64_t nb = a.tile_size();
  const auto handles = register_tiles(engine, t);
  const auto h = [&](std::int64_t i, std::int64_t j) {
    return handles[static_cast<std::size_t>(i * t + j)];
  };
  std::atomic<bool> ok{true};

  for (std::int64_t l = 0; l < t; ++l) {
    // Panel tasks outrank every update of the same and later iterations.
    const int panel_prio = static_cast<int>(2 * (t - l));
    engine.submit(
        [&a, &ok, l, nb] {
          if (!linalg::getrf_nopiv(a.tile(l, l), nb)) ok.store(false);
        },
        {{h(l, l), AccessMode::kReadWrite}}, panel_prio + 1, "getrf");
    for (std::int64_t i = l + 1; i < t; ++i) {
      engine.submit(
          [&a, l, i, nb] {
            linalg::trsm_right_upper(a.tile(l, l), a.tile(i, l), nb);
          },
          {{h(l, l), AccessMode::kRead}, {h(i, l), AccessMode::kReadWrite}},
          panel_prio, "trsm_col");
    }
    for (std::int64_t j = l + 1; j < t; ++j) {
      engine.submit(
          [&a, l, j, nb] {
            linalg::trsm_left_lower_unit(a.tile(l, l), a.tile(l, j), nb);
          },
          {{h(l, l), AccessMode::kRead}, {h(l, j), AccessMode::kReadWrite}},
          panel_prio, "trsm_row");
    }
    for (std::int64_t i = l + 1; i < t; ++i) {
      for (std::int64_t j = l + 1; j < t; ++j) {
        engine.submit(
            [&a, l, i, j, nb] {
              linalg::gemm_update(a.tile(i, l), a.tile(l, j), a.tile(i, j),
                                  nb);
            },
            {{h(i, l), AccessMode::kRead},
             {h(l, j), AccessMode::kRead},
             {h(i, j), AccessMode::kReadWrite}},
            0, "gemm");
      }
    }
  }
  engine.wait_all();
  return ok.load();
}

bool stf_cholesky(TaskEngine& engine, linalg::TiledMatrix& a) {
  const std::int64_t t = a.tiles();
  const std::int64_t nb = a.tile_size();
  const auto handles = register_tiles(engine, t);
  const auto h = [&](std::int64_t i, std::int64_t j) {
    return handles[static_cast<std::size_t>(i * t + j)];
  };
  std::atomic<bool> ok{true};

  for (std::int64_t l = 0; l < t; ++l) {
    const int panel_prio = static_cast<int>(2 * (t - l));
    engine.submit(
        [&a, &ok, l, nb] {
          if (!linalg::potrf_lower(a.tile(l, l), nb)) ok.store(false);
        },
        {{h(l, l), AccessMode::kReadWrite}}, panel_prio + 1, "potrf");
    for (std::int64_t i = l + 1; i < t; ++i) {
      engine.submit(
          [&a, l, i, nb] {
            linalg::trsm_right_lower_trans(a.tile(l, l), a.tile(i, l), nb);
          },
          {{h(l, l), AccessMode::kRead}, {h(i, l), AccessMode::kReadWrite}},
          panel_prio, "trsm");
    }
    for (std::int64_t i = l + 1; i < t; ++i) {
      engine.submit(
          [&a, l, i, nb] {
            linalg::syrk_update_lower(a.tile(i, l), a.tile(i, i), nb);
          },
          {{h(i, l), AccessMode::kRead}, {h(i, i), AccessMode::kReadWrite}},
          0, "syrk");
      for (std::int64_t j = l + 1; j < i; ++j) {
        engine.submit(
            [&a, l, i, j, nb] {
              linalg::gemm_update_trans_b(a.tile(i, l), a.tile(j, l),
                                          a.tile(i, j), nb);
            },
            {{h(i, l), AccessMode::kRead},
             {h(j, l), AccessMode::kRead},
             {h(i, j), AccessMode::kReadWrite}},
            0, "gemm");
      }
    }
  }
  engine.wait_all();
  return ok.load();
}

}  // namespace anyblock::runtime
