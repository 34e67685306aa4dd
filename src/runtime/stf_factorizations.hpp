// Task-based tiled factorizations on the STF engine (single node,
// multi-worker) — the Chameleon-style algorithm layer.
//
// The submission loops below are, line for line, the right-looking
// algorithms of Section III; the engine extracts the parallelism from the
// declared accesses.  Panel tasks get higher priorities so workers keep the
// critical path moving ahead of trailing updates.
#pragma once

#include "linalg/tiled_matrix.hpp"
#include "runtime/task_engine.hpp"

namespace anyblock::runtime {

/// Task-parallel LU without pivoting.  Returns false if any GETRF tile
/// failed (result is then unspecified).
bool stf_lu_nopiv(TaskEngine& engine, linalg::TiledMatrix& a);

/// Task-parallel lower Cholesky.  Returns false if not positive definite.
bool stf_cholesky(TaskEngine& engine, linalg::TiledMatrix& a);

}  // namespace anyblock::runtime
