#include "core/pattern_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace anyblock::core {

std::uint64_t gcrm_attempt_seed(std::uint64_t base_seed, std::int64_t r,
                                std::int64_t s) {
  return split_seed(split_seed(base_seed, static_cast<std::uint64_t>(r)),
                    static_cast<std::uint64_t>(s));
}

std::int64_t gcrm_sweep_max_r(std::int64_t P,
                              const GcrmSearchOptions& options) {
  // r <= f * sqrt(P)  <=>  r^2 <= f^2 * P.  Squaring first and taking the
  // exact integer square root keeps the boundary size: the old
  // static_cast<int64>(f * sqrt(P)) dropped r = k whenever the rounded
  // product landed at k - epsilon.  llround absorbs the one representation
  // rounding of f^2 * P (exact for integral f^2 * P in range).
  const double squared = options.max_r_factor * options.max_r_factor *
                         static_cast<double>(P);
  if (!(squared >= 1.0)) return 0;  // also rejects NaN / negative factors
  if (squared >= 9.2e18)
    throw std::overflow_error("gcrm_sweep_max_r: max_r_factor^2 * P overflows");
  return isqrt_floor(std::llround(squared));
}

double gcrm_balanced_cost_floor(std::int64_t P, std::int64_t r,
                                std::int64_t balance_slack) {
  // Minimum cells per node: loads are integers summing to r(r-1), so the
  // max load is >= ceil(r(r-1)/P); balancedness pulls every load to within
  // `slack` of it, and validity keeps every node above zero.
  const std::int64_t cells = r * (r - 1);
  std::int64_t c_min = ceil_div(cells, P) - balance_slack;
  if (c_min < 1) c_min = 1;
  // Fewest colrows a node owning c_min cells can appear on: its cells are
  // ordered pairs of its own colrows, so v(v-1) >= c_min (and v >= 2, both
  // colrows of any single cell).
  std::int64_t v = std::max<std::int64_t>(2, isqrt_floor(c_min));
  while (v * (v - 1) < c_min) ++v;
  return static_cast<double>(P * v) / static_cast<double>(r);
}

std::vector<std::int64_t> gcrm_feasible_sizes(std::int64_t P,
                                              std::int64_t max_r) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t r = 2; r <= max_r; ++r) {
    if (gcrm_feasible(P, r)) sizes.push_back(r);
  }
  return sizes;
}

void GcrmSweepProfile::merge(const GcrmSweepProfile& other) {
  searches += other.searches;
  sizes_feasible += other.sizes_feasible;
  sizes_pruned += other.sizes_pruned;
  attempts_built += other.attempts_built;
  attempts_abandoned += other.attempts_abandoned;
  attempts_skipped += other.attempts_skipped;
  timings.phase1_seconds += other.timings.phase1_seconds;
  timings.covers_seconds += other.timings.covers_seconds;
  timings.match_seconds += other.timings.match_seconds;
  timings.fallback_seconds += other.timings.fallback_seconds;
  timings.finalize_seconds += other.timings.finalize_seconds;
  total_seconds += other.total_seconds;
}

std::vector<std::pair<std::string, double>> GcrmSweepProfile::metric_rows()
    const {
  return {
      {"sweep_searches", static_cast<double>(searches)},
      {"sweep_sizes_feasible", static_cast<double>(sizes_feasible)},
      {"sweep_sizes_pruned", static_cast<double>(sizes_pruned)},
      {"sweep_attempts_built", static_cast<double>(attempts_built)},
      {"sweep_attempts_abandoned", static_cast<double>(attempts_abandoned)},
      {"sweep_attempts_skipped", static_cast<double>(attempts_skipped)},
      {"sweep_phase1_seconds", timings.phase1_seconds},
      {"sweep_covers_seconds", timings.covers_seconds},
      {"sweep_match_seconds", timings.match_seconds},
      {"sweep_fallback_seconds", timings.fallback_seconds},
      {"sweep_finalize_seconds", timings.finalize_seconds},
      {"sweep_total_seconds", total_seconds},
  };
}

namespace {

/// One slice's local reduction: what the flat sequential sweep would keep
/// had it only seen this slice's attempts (the slice fixes r).  Strict `<`
/// keeps the earliest seed of equal cost, so merging slices in canonical
/// (r, s) order replays the flat sweep's tie-breaking.
struct SliceBest {
  bool have_balanced = false;
  double balanced_cost = 0.0;
  std::uint64_t balanced_seed = 0;

  bool have_valid = false;
  double valid_cost = 0.0;
  std::uint64_t valid_seed = 0;

  std::vector<GcrmSample> samples;
  GcrmSweepProfile profile;  ///< this slice's counters (and timings)
  bool skipped = false;      ///< whole slice fell to the balanced-cost floor
};

/// Lowers `target` to `value` if smaller.  The threshold is a standalone
/// monotone hint (it publishes no other data), so relaxed ordering
/// suffices: a stale read only prunes less, never wrongly.
void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Runs restarts [s_begin, s_end) of pattern size r.  `threshold` (null =
/// reference mode: never prune) is the cheapest balanced cost built by any
/// slice so far, +inf when none: the slice is skipped whole when the size's
/// floor exceeds it, attempts abandon against it, and it tightens as this
/// slice builds cheaper balanced patterns.
SliceBest reduce_slice(std::int64_t P, std::int64_t r, std::int64_t s_begin,
                       std::int64_t s_end, const GcrmSearchOptions& options,
                       bool keep_samples, bool timed,
                       std::atomic<double>* threshold) {
  SliceBest best;
  if (threshold && gcrm_balanced_cost_floor(P, r, options.balance_slack) >
                       threshold->load(std::memory_order_relaxed)) {
    best.skipped = true;
    best.profile.attempts_skipped = s_end - s_begin;
    return best;
  }
  GcrmBuildControls controls;
  controls.timings = timed ? &best.profile.timings : nullptr;
  for (std::int64_t s = s_begin; s < s_end; ++s) {
    const std::uint64_t seed = gcrm_attempt_seed(options.base_seed, r, s);
    if (threshold)
      controls.abandon_above = threshold->load(std::memory_order_relaxed);
    const GcrmResult attempt = gcrm_build(P, r, seed, controls);
    if (attempt.abandoned) {
      ++best.profile.attempts_abandoned;
      continue;
    }
    ++best.profile.attempts_built;
    const bool balanced =
        attempt.valid && attempt.pattern.is_balanced(options.balance_slack);
    if (keep_samples)
      best.samples.push_back({r, seed, attempt.cost, attempt.valid, balanced});
    if (!attempt.valid) continue;
    if (balanced) {
      if (!best.have_balanced || attempt.cost < best.balanced_cost) {
        best.have_balanced = true;
        best.balanced_cost = attempt.cost;
        best.balanced_seed = seed;
      }
      if (threshold) atomic_min(*threshold, attempt.cost);
    }
    if (!best.have_valid || attempt.cost < best.valid_cost) {
      best.have_valid = true;
      best.valid_cost = attempt.cost;
      best.valid_seed = seed;
    }
  }
  return best;
}

}  // namespace

GcrmSearchResult gcrm_sweep(std::int64_t P, const GcrmSearchOptions& options,
                            std::int64_t slices_per_size,
                            const GcrmSliceRunner& runner, bool keep_samples,
                            GcrmSweepProfile* profile) {
  if (P <= 0) throw std::invalid_argument("P must be positive");
  const auto sweep_start = std::chrono::steady_clock::now();

  // Slice j of a size holds restarts [j * seeds / per_size,
  // (j + 1) * seeds / per_size): contiguous, in canonical order, and empty
  // only when seeds is 0.
  const std::vector<std::int64_t> sizes =
      gcrm_feasible_sizes(P, gcrm_sweep_max_r(P, options));
  const std::int64_t per_size = std::clamp<std::int64_t>(
      slices_per_size, 1, std::max<std::int64_t>(options.seeds, 1));
  const auto per = static_cast<std::size_t>(per_size);
  const std::size_t count = sizes.size() * per;

  // Samples must record every attempt, so pruning turns off with them.
  const bool prune = options.prune && !keep_samples;
  std::atomic<double> threshold{std::numeric_limits<double>::infinity()};
  std::vector<SliceBest> slices(count);
  runner(count, [&](std::size_t k) {
    // Pruned sweeps would like descending r: winners empirically sit near
    // max_r, so the incumbent tightens in the first slices and low-r slices
    // fall to the cost floor.  Any order returns the same winner: the
    // threshold only removes attempts that provably lose the strict-<
    // selection below (DESIGN.md §12).
    const std::size_t i = prune ? count - 1 - k : k;
    const auto j = static_cast<std::int64_t>(i % per);
    slices[i] = reduce_slice(
        P, sizes[i / per], j * options.seeds / per_size,
        (j + 1) * options.seeds / per_size,
        options, keep_samples, profile != nullptr,
        prune ? &threshold : nullptr);
  });

  // Canonical (r, s) merge: replay the flat sequential selection over the
  // slice reductions.  Balanced patterns strictly dominate unbalanced ones;
  // among patterns of the same class, lower z-bar wins and strict `<`
  // keeps the earliest (r, s).
  GcrmSearchResult result;
  bool have_balanced = false;
  for (std::size_t i = 0; i < count; ++i) {
    SliceBest& slice = slices[i];
    const std::int64_t r = sizes[i / per];
    if (keep_samples)
      result.samples.insert(result.samples.end(),
                            std::make_move_iterator(slice.samples.begin()),
                            std::make_move_iterator(slice.samples.end()));
    if (slice.have_balanced &&
        (!have_balanced || slice.balanced_cost < result.best_cost)) {
      have_balanced = true;
      result.best_cost = slice.balanced_cost;
      result.best_r = r;
      result.best_seed = slice.balanced_seed;
      result.found = true;
    }
    if (!have_balanced && slice.have_valid &&
        (!result.found || slice.valid_cost < result.best_cost)) {
      result.best_cost = slice.valid_cost;
      result.best_r = r;
      result.best_seed = slice.valid_seed;
      result.found = true;
    }
  }
  // One extra construction rebuilds the winner from its coordinates — the
  // same determinism the winners table relies on.
  if (result.found)
    result.best = gcrm_build(P, result.best_r, result.best_seed).pattern;

  if (profile) {
    ++profile->searches;
    profile->sizes_feasible += static_cast<std::int64_t>(sizes.size());
    for (const SliceBest& slice : slices) profile->merge(slice.profile);
    // A size counts as pruned when every one of its slices was skipped.
    for (auto first = slices.begin(); first != slices.end(); first += per_size)
      if (std::all_of(first, first + per_size,
                      [](const SliceBest& slice) { return slice.skipped; }))
        ++profile->sizes_pruned;
    profile->total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
  }
  return result;
}

GcrmSearchResult gcrm_search(std::int64_t P, const GcrmSearchOptions& options,
                             bool keep_samples, GcrmSweepProfile* profile) {
  return gcrm_sweep(
      P, options, /*slices_per_size=*/1,
      [](std::size_t count, const std::function<void(std::size_t)>& run_slice) {
        for (std::size_t k = 0; k < count; ++k) run_slice(k);
      },
      keep_samples, profile);
}

Pattern best_gcrm_pattern(std::int64_t P) {
  const GcrmSearchResult result = gcrm_search(P, GcrmSearchOptions{});
  if (!result.found)
    throw std::runtime_error("GCR&M search found no valid pattern");
  return result.best;
}

}  // namespace anyblock::core