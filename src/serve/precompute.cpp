#include "serve/precompute.hpp"

#include <filesystem>
#include <memory>
#include <utility>

#include "core/recommend.hpp"
#include "serve/parallel_search.hpp"
#include "serve/recommend_service.hpp"
#include "store/pattern_store.hpp"

namespace anyblock::serve {

namespace {

void save_or_throw(const store::WinnersTable& table, const std::string& path) {
  if (!table.save_file(path))
    throw std::runtime_error("precompute: cannot write winners table: " +
                             path);
}

}  // namespace

PrecomputeReport precompute_winners(const PrecomputeOptions& options,
                                    runtime::TaskEngine& engine,
                                    const PrecomputeProgress& progress) {
  if (options.min_p < 2 || options.max_p < options.min_p)
    throw std::invalid_argument("precompute: need 2 <= min_p <= max_p");

  PrecomputeReport report;
  store::WinnersTable table;
  if (options.resume && std::filesystem::exists(options.table_path)) {
    if (!table.load_file(options.table_path))
      throw PrecomputeError(
          "precompute --resume: existing table is damaged (" + table.error() +
          "); refusing to overwrite — delete " + options.table_path +
          " to start over");
    if (!(table.options() == options.search))
      throw PrecomputeError(
          "precompute --resume: existing table was swept with different "
          "search options; refusing to mix — delete " + options.table_path +
          " or rerun with the table's options");
    report.resumed = static_cast<std::int64_t>(table.size());
  }
  table.set_options(options.search);

  std::unique_ptr<store::PatternStore> memo;
  if (!options.store_path.empty())
    memo = std::make_unique<store::PatternStore>(options.store_path);

  std::int64_t since_checkpoint = 0;
  for (std::int64_t P = options.min_p; P <= options.max_p; ++P) {
    if (table.find(P)) continue;  // resume: row already present
    const core::GcrmSearchResult search =
        parallel_gcrm_search(P, options.search, engine,
                             /*keep_samples=*/false, &report.profile);
    if (!search.found) {
      ++report.infeasible;
      continue;
    }
    const store::WinnerRow row{P, search.best_r, search.best_seed,
                               search.best_cost};
    table.add(row);
    ++report.swept;
    if (memo) {
      core::RecommendOptions rec_options;
      rec_options.search = options.search;
      memo->put(
          recommendation_key(P, core::Kernel::kCholesky, options.search),
          recommendation_entry(core::recommend_symmetric_from_search(
              P, search, rec_options)));
    }
    if (progress) progress(row);
    // Checkpoint: an interrupted multi-hour sweep resumes from here.
    if (options.checkpoint_every > 0 &&
        ++since_checkpoint >= options.checkpoint_every) {
      save_or_throw(table, options.table_path);
      since_checkpoint = 0;
      ++report.checkpoints;
    }
  }
  save_or_throw(table, options.table_path);
  report.table_rows = table.size();
  return report;
}

}  // namespace anyblock::serve