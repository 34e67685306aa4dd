// Batch-capable pattern-recommendation service — the first subsystem whose
// hot path is a query, not a factorization.
//
// Answer path, fastest first:
//   1. store  — PatternStore hit on the digest of (P, metric, options):
//               sub-millisecond, the memoized final recommendation;
//   2. table  — shipped winners table (data/gcrm_winners.tsv) hit: one
//               deterministic gcrm_build of the recorded (r, seed) winner,
//               milliseconds, then memoized into the store;
//   3. sweep  — the full GCR&M sweep, parallelized across the task engine
//               (bit-identical to core::gcrm_search), then memoized.
// LU queries take the closed-form path (no sweep) but are memoized the
// same way, so every metric goes through one digest scheme.
//
// Latency is recorded into cold/warm obs::LatencyHistograms; counters and
// percentiles surface through metric_rows() in the obs CSV convention.
//
// Thread-safety: recommend()/recommend_batch() may be called from any
// number of threads; cold sweeps serialize on an internal mutex (the task
// engine is single-submitter), warm lookups only take the store's lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern_search.hpp"
#include "core/recommend.hpp"
#include "obs/histogram.hpp"
#include "runtime/task_engine.hpp"
#include "store/pattern_store.hpp"
#include "store/winners_table.hpp"

namespace anyblock::serve {

struct ServiceOptions {
  /// Manifest path for the persistent store; empty = in-memory memo only.
  std::string store_path;
  /// Shipped winners table; empty = none.  A table whose recorded search
  /// options differ from `recommend.search` is loaded but never consulted.
  std::string table_path;
  /// Worker threads for the parallel sweep (cold path).
  int workers = 1;
  /// Search budget; part of every cache digest.
  core::RecommendOptions recommend;
};

/// Where an answer came from: the store, the winners table, the closed-form
/// G-2DBC construction (LU, no search runs) or a GCR&M search.  The store
/// is the cheapest source and a search the dearest.
enum class Source { kStore, kTable, kClosedForm, kSearch };

[[nodiscard]] const char* source_name(Source source);

/// The pattern-store key a recommendation for (P, kernel) under `search`
/// is memoized at: the one key precompute writes and every service reads.
/// Symmetric kernels share one key (they share one pattern class).
[[nodiscard]] store::StoreKey recommendation_key(
    std::int64_t P, core::Kernel kernel,
    const core::GcrmSearchOptions& search);

/// The store entry memoizing `rec`.
[[nodiscard]] store::StoreEntry recommendation_entry(
    const core::Recommendation& rec);

struct ServedRecommendation {
  core::Recommendation rec;
  Source source = Source::kSearch;
  double seconds = 0.0;  ///< service-side latency of this query
};

struct ServiceStats {
  std::int64_t queries = 0;
  std::int64_t store_hits = 0;
  std::int64_t table_hits = 0;
  std::int64_t sweeps = 0;      ///< full GCR&M sweeps run (symmetric cold)
  std::int64_t lu_builds = 0;   ///< closed-form LU constructions (cold)
};

class RecommendService {
 public:
  explicit RecommendService(ServiceOptions options);

  /// recommend_pattern, served: bit-identical result, amortized cost.
  ServedRecommendation recommend(std::int64_t P, core::Kernel kernel);

  /// Batch mode: answers in input order.  Cold entries parallelize their
  /// sweeps internally; duplicates within a batch hit the store.
  std::vector<ServedRecommendation> recommend_batch(
      const std::vector<std::int64_t>& nodes, core::Kernel kernel);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] store::PatternStore& pattern_store() { return store_; }
  [[nodiscard]] const store::WinnersTable& table() const { return table_; }
  [[nodiscard]] bool table_usable() const { return table_usable_; }

  /// Cold (miss → rebuild/sweep) and warm (store hit) latency summaries
  /// plus service, store, and sweep-profile counters, in the obs extra-row
  /// convention ("serve_*" / "store_*" / "sweep_*").
  [[nodiscard]] std::vector<std::pair<std::string, double>> metric_rows()
      const;

  /// Accumulated profile of every sweep this service ran (cold path).
  [[nodiscard]] core::GcrmSweepProfile sweep_profile() const;

 private:
  ServedRecommendation answer_symmetric(std::int64_t P);

  ServiceOptions options_;
  store::PatternStore store_;
  store::WinnersTable table_;
  bool table_usable_ = false;

  /// Guards the cold path (engine submission is single-threaded) and the
  /// counters; the engine is lazily constructed so warm-only services
  /// never spawn sweep workers.
  mutable std::mutex mutex_;
  std::unique_ptr<runtime::TaskEngine> engine_;
  ServiceStats stats_;
  core::GcrmSweepProfile sweep_profile_;  ///< guarded by mutex_ (cold path)

  obs::LatencyHistogram cold_latency_;
  obs::LatencyHistogram warm_latency_;
};

}  // namespace anyblock::serve
