// Search driver for symmetric patterns (paper, Section V-B).
//
// GCR&M depends on the pattern size r and on random tie-breaking, so the
// paper's protocol runs Algorithm 1 for every feasible r <= 6*sqrt(P) with
// 100 seeds and keeps the cheapest balanced pattern.  Patterns depend only
// on P, never on the matrix, so this search runs once per node count (and
// `anyblock precompute` records its winners in store::WinnersTable).
//
// gcrm_sweep is the one implementation of that sweep.  It cuts the (r, s)
// grid into slices, reduces each slice locally, prunes and merges; a
// caller-supplied GcrmSliceRunner only decides where and in which order the
// slices run.  gcrm_search runs them in order on the calling thread;
// serve::parallel_gcrm_search runs them on a task engine.  Every seed is a
// pure function of (base_seed, r, s) and the merge replays the canonical
// (r, s) order, so the winner never depends on the slicing or the order.
//
// The sweep dominates `anyblock precompute` at large P, so it supports a
// provably result-identical pruned mode (GcrmSearchOptions::prune): slices
// whose pattern size's balanced-cost floor already exceeds the best cost
// built so far are skipped whole, and individual constructions abandon as
// soon as their committed incidences bound them above the incumbent.  Both
// cuts only remove attempts that lose the strict-< winner selection, so the
// pruned sweep returns the bit-identical (r, seed, cost) winner
// (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/gcrm.hpp"
#include "core/pattern.hpp"

namespace anyblock::core {

struct GcrmSearchOptions {
  /// Sweep r over feasible sizes up to max_r_factor * sqrt(P).
  double max_r_factor = 6.0;
  /// Random restarts per pattern size.
  std::int64_t seeds = 100;
  /// Base seed; run s of size r uses gcrm_attempt_seed(base_seed, r, s).
  std::uint64_t base_seed = 42;
  /// Keep only patterns whose node loads differ by at most this much
  /// (the lazy diagonal assignment can absorb a +/-1 spread).
  std::int64_t balance_slack = 1;
  /// Skip pattern sizes and abandon constructions that provably cannot beat
  /// the incumbent (bit-identical winners — pinned by the golden
  /// pruned-vs-unpruned equivalence tests, so it defaults on).  Ignored
  /// when samples are requested: samples record every attempt in full.
  bool prune = true;

  /// Identity of the swept grid and selection rule.  `prune` is excluded
  /// deliberately: pruning is result-identical, so winners tables and store
  /// entries produced with and without it are interchangeable (and the
  /// on-disk formats never record it).
  friend bool operator==(const GcrmSearchOptions& a,
                         const GcrmSearchOptions& b) {
    return a.max_r_factor == b.max_r_factor && a.seeds == b.seeds &&
           a.base_seed == b.base_seed && a.balance_slack == b.balance_slack;
  }
};

/// Seed of restart s at pattern size r: an independent splitmix64-derived
/// stream per (r, s), via util::rng::split_seed.  A pure function of its
/// three arguments — never of sweep order — so any slicing of the (r, s)
/// grid (gcrm_sweep) draws exactly the constructions the sequential sweep
/// draws.
[[nodiscard]] std::uint64_t gcrm_attempt_seed(std::uint64_t base_seed,
                                              std::int64_t r, std::int64_t s);

/// Largest pattern size the sweep considers: the biggest r with
/// r^2 <= max_r_factor^2 * P, computed through exact integer square root so
/// boundary sizes are never lost to floating-point truncation (sqrt
/// returning k - epsilon used to drop the exact boundary r = k).
[[nodiscard]] std::int64_t gcrm_sweep_max_r(std::int64_t P,
                                            const GcrmSearchOptions& options);

/// Lower bound on the z-bar of ANY balanced valid pattern of size r for P
/// nodes — the floor the pruned sweep compares against the incumbent.
/// Derivation (all integer, see DESIGN.md): validity forces every node to
/// own >= 1 cell and balancedness forces >= ceil(r(r-1)/P) - slack, so each
/// node owns c >= c_min cells; a node owning c cells appears on v colrows
/// with v(v-1) >= c; hence cost = (sum v_p)/r >= P * v_min(c_min) / r.
/// Not monotone in r (v_min jumps), so the sweep evaluates it per size.
[[nodiscard]] double gcrm_balanced_cost_floor(std::int64_t P, std::int64_t r,
                                              std::int64_t balance_slack);

/// One sampled construction, recorded for Fig. 9-style analyses.
struct GcrmSample {
  std::int64_t r = 0;
  std::uint64_t seed = 0;
  double cost = 0.0;
  bool valid = false;
  bool balanced = false;
};

/// Where a sweep's work went: counters for the pruning cuts plus the
/// per-phase gcrm_build timing breakdown.  Accumulates across sweeps via
/// merge(); metric_rows() emits the obs-convention `sweep_*` rows for
/// MetricsOptions.extra / `--metrics` CSVs.
struct GcrmSweepProfile {
  std::int64_t searches = 0;        ///< sweeps accumulated into this profile
  std::int64_t sizes_feasible = 0;  ///< pattern sizes passing Eq. 3
  std::int64_t sizes_pruned = 0;    ///< sizes skipped by the cost floor
  std::int64_t attempts_built = 0;  ///< constructions run to completion
  std::int64_t attempts_abandoned = 0;  ///< cut short by the incidence bound
  std::int64_t attempts_skipped = 0;    ///< never started (size pruned)
  GcrmBuildTimings timings;             ///< per-phase seconds, built attempts
  double total_seconds = 0.0;           ///< wall clock of the whole sweep

  void merge(const GcrmSweepProfile& other);
  [[nodiscard]] std::vector<std::pair<std::string, double>> metric_rows()
      const;
};

struct GcrmSearchResult {
  Pattern best;       ///< cheapest valid (preferring balanced) pattern
  double best_cost = 0.0;
  bool found = false;
  /// Winning construction coordinates: gcrm_build(P, best_r, best_seed)
  /// reproduces `best` exactly — what the precomputed winners table ships
  /// instead of full patterns.
  std::int64_t best_r = 0;
  std::uint64_t best_seed = 0;
  std::vector<GcrmSample> samples;  ///< every construction attempted
};

/// Feasible pattern sizes for P up to `max_r` (Eq. 3 and r(r-1) >= P).
std::vector<std::int64_t> gcrm_feasible_sizes(std::int64_t P,
                                              std::int64_t max_r);

/// Executes a sweep's slices: must call run_slice(k) exactly once for every
/// k in [0, count), in any order and from any threads, and return once all
/// calls have returned.  Ascending k is the order the sweep prefers
/// (descending r when pruning, so the incumbent tightens early).
using GcrmSliceRunner = std::function<void(
    std::size_t count, const std::function<void(std::size_t k)>& run_slice)>;

/// The sweep behind gcrm_search and serve::parallel_gcrm_search.  Each
/// size's restarts are cut into `slices_per_size` contiguous slices
/// (clamped to [1, seeds]) and `runner` executes them; winner, cost bits
/// and samples are the same for every slicing and every execution order.
/// Pruning counters in `profile` may differ with the order.
GcrmSearchResult gcrm_sweep(std::int64_t P, const GcrmSearchOptions& options,
                            std::int64_t slices_per_size,
                            const GcrmSliceRunner& runner,
                            bool keep_samples = false,
                            GcrmSweepProfile* profile = nullptr);

/// Sequential sweep: one slice per size, run in order on this thread.
/// `keep_samples` controls whether every attempt is recorded (Fig. 9) or
/// only the winner retained (fast path for large sweeps).  When `profile`
/// is non-null the sweep's counters and per-phase timings are accumulated
/// into it (+=, so one profile can span many sweeps).
GcrmSearchResult gcrm_search(std::int64_t P, const GcrmSearchOptions& options,
                             bool keep_samples = false,
                             GcrmSweepProfile* profile = nullptr);

/// Convenience: the best GCR&M pattern for P with default options; throws
/// if the search finds nothing (does not happen for P >= 2 in practice).
Pattern best_gcrm_pattern(std::int64_t P);

}  // namespace anyblock::core