// Deterministic parallel GCR&M sweep over runtime::TaskEngine.
//
// core::gcrm_sweep owns the whole sweep: slicing the (r, s) grid, the
// per-slice reduction, pruning against one shared threshold, and the
// canonical-order merge that makes any execution order return the
// sequential winner.  This file only schedules: it asks for one slice per
// worker and pattern size, and submits each slice as an engine task.  The
// result is bit-identical to core::gcrm_search (same pattern, cost,
// winner coordinates and samples), pruned or not, at any worker count.
#pragma once

#include <cstdint>

#include "core/pattern_search.hpp"
#include "runtime/task_engine.hpp"

namespace anyblock::serve {

/// Parallel drop-in for core::gcrm_search.  `engine` supplies the workers;
/// submissions happen on the calling thread (STF semantics), so do not call
/// this concurrently on one engine.  When `profile` is non-null the sweep's
/// counters and per-phase timings are accumulated into it after the merge
/// (single-threaded, like the sequential search's profile).
core::GcrmSearchResult parallel_gcrm_search(
    std::int64_t P, const core::GcrmSearchOptions& options,
    runtime::TaskEngine& engine, bool keep_samples = false,
    core::GcrmSweepProfile* profile = nullptr);

}  // namespace anyblock::serve
