#include "serve/recommend_service.hpp"

#include <chrono>

#include "core/gcrm.hpp"
#include "serve/parallel_search.hpp"

namespace anyblock::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* source_name(Source source) {
  switch (source) {
    case Source::kStore: return "store";
    case Source::kTable: return "table";
    case Source::kClosedForm: return "closed-form";
    case Source::kSearch: return "search";
  }
  return "unknown";
}

RecommendService::RecommendService(ServiceOptions options)
    : options_(std::move(options)), store_(options_.store_path) {
  if (!options_.table_path.empty() && table_.load_file(options_.table_path))
    table_usable_ = table_.options() == options_.recommend.search;
}

store::StoreKey recommendation_key(std::int64_t P, core::Kernel kernel,
                                   const core::GcrmSearchOptions& search) {
  store::StoreKey key;
  key.P = P;
  key.metric = core::kernel_is_symmetric(kernel) ? "symmetric" : "lu";
  key.search = search;
  return key;
}

store::StoreEntry recommendation_entry(const core::Recommendation& rec) {
  return {rec.pattern, rec.scheme, rec.cost, rec.rationale};
}

ServedRecommendation RecommendService::answer_symmetric(std::int64_t P) {
  // Table: rebuild the recorded winner with one deterministic construction
  // and cross-check its cost; a row that does not reproduce is ignored.
  if (table_usable_) {
    if (const auto row = table_.find(P)) {
      core::GcrmResult rebuilt = core::gcrm_build(P, row->r, row->seed);
      if (rebuilt.valid && rebuilt.cost == row->cost) {
        core::GcrmSearchResult search;
        search.best = std::move(rebuilt.pattern);
        search.best_cost = rebuilt.cost;
        search.best_r = row->r;
        search.best_seed = row->seed;
        search.found = true;
        ServedRecommendation served;
        served.rec = core::recommend_symmetric_from_search(
            P, search, options_.recommend);
        served.source = Source::kTable;
        return served;
      }
    }
  }
  // Sweep, in parallel across the engine; bit-identical to gcrm_search.
  if (!engine_) {
    engine_ = std::make_unique<runtime::TaskEngine>(
        options_.workers > 0 ? options_.workers : 1);
  }
  const core::GcrmSearchResult search =
      parallel_gcrm_search(P, options_.recommend.search, *engine_,
                           /*keep_samples=*/false, &sweep_profile_);
  ServedRecommendation served;
  served.rec =
      core::recommend_symmetric_from_search(P, search, options_.recommend);
  served.source = Source::kSearch;
  return served;
}

ServedRecommendation RecommendService::recommend(std::int64_t P,
                                                 core::Kernel kernel) {
  const auto start = std::chrono::steady_clock::now();
  const store::StoreKey key =
      recommendation_key(P, kernel, options_.recommend.search);

  if (auto cached = store_.get(key)) {
    ServedRecommendation served;
    served.rec.pattern = std::move(cached->pattern);
    served.rec.scheme = std::move(cached->scheme);
    served.rec.cost = cached->cost;
    served.rec.rationale = std::move(cached->rationale);
    served.source = Source::kStore;
    served.seconds = seconds_since(start);
    warm_latency_.record_seconds(served.seconds);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries;
    ++stats_.store_hits;
    return served;
  }

  ServedRecommendation served;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries;
    if (core::kernel_is_symmetric(kernel)) {
      served = answer_symmetric(P);
      if (served.source == Source::kTable) {
        ++stats_.table_hits;
      } else {
        ++stats_.sweeps;
      }
    } else {
      served.rec = core::recommend_lu(P);
      served.source = Source::kClosedForm;
      ++stats_.lu_builds;
    }
  }

  store_.put(key, recommendation_entry(served.rec));

  served.seconds = seconds_since(start);
  cold_latency_.record_seconds(served.seconds);
  return served;
}

std::vector<ServedRecommendation> RecommendService::recommend_batch(
    const std::vector<std::int64_t>& nodes, core::Kernel kernel) {
  std::vector<ServedRecommendation> results;
  results.reserve(nodes.size());
  for (const std::int64_t P : nodes) results.push_back(recommend(P, kernel));
  return results;
}

ServiceStats RecommendService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

core::GcrmSweepProfile RecommendService::sweep_profile() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sweep_profile_;
}

std::vector<std::pair<std::string, double>> RecommendService::metric_rows()
    const {
  const ServiceStats snapshot = stats();
  std::vector<std::pair<std::string, double>> rows = {
      {"serve_queries", static_cast<double>(snapshot.queries)},
      {"serve_store_hits", static_cast<double>(snapshot.store_hits)},
      {"serve_table_hits", static_cast<double>(snapshot.table_hits)},
      {"serve_sweeps", static_cast<double>(snapshot.sweeps)},
      {"serve_lu_builds", static_cast<double>(snapshot.lu_builds)},
  };
  for (auto& row : warm_latency_.metric_rows("serve_warm"))
    rows.push_back(std::move(row));
  for (auto& row : cold_latency_.metric_rows("serve_cold"))
    rows.push_back(std::move(row));
  for (auto& row : store_.stats().metric_rows()) rows.push_back(std::move(row));
  for (auto& row : sweep_profile().metric_rows())
    rows.push_back(std::move(row));
  return rows;
}

}  // namespace anyblock::serve
