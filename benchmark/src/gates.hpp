// Correctness gates.  Every operation a workload times is checked by one or
// more of these before its sample counts; a gate that fires marks the
// operation failed (the `failed` / `attempted` counts of the result line).
// Each gate is a pure function of its inputs so the self-test can feed it a
// deliberately corrupted input and watch it fire.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/distribution.hpp"
#include "core/recommend.hpp"
#include "linalg/tiled_matrix.hpp"
#include "serve/recommend_service.hpp"
#include "store/winners_table.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::bench {

/// FNV-1a digest of the factor's bytes: every element for LU, the lower
/// triangle (diagonal included) for Cholesky — the entries `anyblock run`
/// compares against the sequential reference.
std::uint64_t factor_digest(const linalg::TiledMatrix& factored,
                            bool lower_only);

/// The distributed factor is bit-identical to linalg::tiled_* (compared
/// through factor_digest).
Failure factor_matches_reference(std::uint64_t digest,
                                 std::uint64_t reference);

/// Tile messages a factorization's final gather adds: one per served tile
/// rank 0 does not own.
std::int64_t gather_messages(const core::Distribution& distribution,
                             std::int64_t t, bool symmetric);

/// The global RunReport totals minus the gather equal the closed form, on
/// the send side, on the (post-dedup) receive side, and in doubles moved
/// (`tile_doubles` per message under eager p2p).
Failure counts_match_closed_form(const vmpi::RunReport& report,
                                 std::int64_t gather, std::int64_t predicted,
                                 std::int64_t tile_doubles);

/// A `run` (or `launch ... run`) process exited 0, each of its `processes`
/// printed "verdict ok", and each printed factorization count equals the
/// closed form it printed beside it.
Failure cli_run_ok(const ProcessResult& result, int processes);

/// A `simulate` process exited 0, printed the closed-form message count
/// and the makespan (2 decimals) the in-process simulation produced.
Failure simulate_output_ok(const ProcessResult& result,
                           std::int64_t closed_form, double makespan_seconds);

/// A cold recommend process exited 0 and returned, from a sweep, the
/// recommendation the shipped winners table yields (scheme, size, cost).
Failure cold_matches_table(const ProcessResult& result,
                           const core::Recommendation& expected);

/// The swept table holds exactly the shipped rows for P in [min_p, max_p].
Failure precompute_rows_match(const store::WinnersTable& swept,
                              const store::WinnersTable& shipped,
                              std::int64_t min_p, std::int64_t max_p);

/// A warm lookup hit the store and returned the cold result's pattern.
Failure warm_equals_cold(const serve::ServedRecommendation& warm,
                         const core::Recommendation& cold);

/// A deterministic quantity repeated exactly (bitwise).
Failure repeats_exactly(const std::string& what, double first, double again);

}  // namespace anyblock::bench
