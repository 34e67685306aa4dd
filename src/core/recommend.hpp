// The front door: given a node count and a kernel, pick the right scheme.
//
// Encodes the paper's decision procedure — G-2DBC for non-symmetric
// factorizations (collapsing to plain 2DBC when P factors nicely), and for
// symmetric kernels SBC when P is one of its feasible values, otherwise
// the GCR&M search — so downstream code asks one question instead of
// knowing four constructions.
#pragma once

#include <cstdint>
#include <string>

#include "core/pattern.hpp"
#include "core/pattern_search.hpp"

namespace anyblock::core {

enum class Kernel { kLu, kCholesky };

struct RecommendOptions {
  /// Search effort for the GCR&M fallback (symmetric kernels only).
  GcrmSearchOptions search;
};

struct Recommendation {
  Pattern pattern;
  /// "2DBC", "G-2DBC", "SBC", or "GCR&M".
  std::string scheme;
  /// T(G) under the requested kernel's metric.
  double cost = 0.0;
  /// One-line human-readable justification.
  std::string rationale;
};

/// Best known pattern for P homogeneous nodes running `kernel`.
/// Throws std::runtime_error only if the GCR&M search finds nothing
/// (does not happen for P >= 2 with default options).
Recommendation recommend_pattern(std::int64_t P, Kernel kernel,
                                 const RecommendOptions& options = {});

/// True when `kernel` uses the symmetric (z-bar) decision path — the one
/// whose GCR&M sweep is worth caching; the LU path is closed-form.
[[nodiscard]] bool kernel_is_symmetric(Kernel kernel);

/// Canonical lowercase kernel names ("lu" | "cholesky"), used by
/// the CLI and as part of the pattern store's digest key.
[[nodiscard]] std::string kernel_name(Kernel kernel);

/// The non-symmetric branch of recommend_pattern: G-2DBC, collapsing to
/// plain 2DBC when P factors nicely.  Closed-form; never searches.
Recommendation recommend_lu(std::int64_t P);

/// The symmetric branch of recommend_pattern, with the GCR&M sweep result
/// supplied by the caller — the seam the serving layer uses to plug in a
/// parallel sweep or a cache hit.  Applies the identical SBC-vs-GCR&M
/// comparison, so feeding it gcrm_search(P, options.search) reproduces
/// recommend_pattern bit for bit.
Recommendation recommend_symmetric_from_search(std::int64_t P,
                                               const GcrmSearchResult& search,
                                               const RecommendOptions& options);

}  // namespace anyblock::core
