#include "serve/precompute.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/recommend.hpp"
#include "runtime/task_engine.hpp"
#include "serve/recommend_service.hpp"
#include "store/winners_table.hpp"

namespace anyblock::serve {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

PrecomputeOptions fast_options(const std::string& table_path) {
  PrecomputeOptions options;
  options.min_p = 2;
  options.max_p = 8;
  options.search.seeds = 5;
  options.table_path = table_path;
  return options;
}

TEST(Precompute, FreshSweepWritesEveryFeasibleP) {
  const std::string path = temp_path("precompute_fresh.tsv");
  std::remove(path.c_str());
  runtime::TaskEngine engine(2);
  const PrecomputeReport report =
      precompute_winners(fast_options(path), engine);
  EXPECT_EQ(report.resumed, 0);
  EXPECT_EQ(report.swept + report.infeasible, 7);  // P in [2, 8]
  EXPECT_EQ(report.table_rows, static_cast<std::size_t>(report.swept));

  store::WinnersTable table;
  ASSERT_TRUE(table.load_file(path)) << table.error();
  EXPECT_EQ(table.size(), report.table_rows);
  std::remove(path.c_str());
}

TEST(Precompute, ResumeKeepsRowsAndSweepsOnlyTheGap) {
  const std::string path = temp_path("precompute_resume.tsv");
  std::remove(path.c_str());
  runtime::TaskEngine engine(2);
  const PrecomputeReport first =
      precompute_winners(fast_options(path), engine);
  ASSERT_GT(first.swept, 0);

  // Same range again: everything resumes, nothing is swept.
  PrecomputeOptions again = fast_options(path);
  again.resume = true;
  std::vector<std::int64_t> swept_ps;
  const PrecomputeReport second = precompute_winners(
      again, engine,
      [&](const store::WinnerRow& row) { swept_ps.push_back(row.P); });
  EXPECT_EQ(second.swept, 0);
  EXPECT_TRUE(swept_ps.empty());
  EXPECT_EQ(second.resumed, first.swept);
  EXPECT_EQ(second.table_rows, first.table_rows);

  // A larger --max-p extends: old rows kept, only the gap swept.
  PrecomputeOptions wider = fast_options(path);
  wider.resume = true;
  wider.max_p = 12;
  const PrecomputeReport third = precompute_winners(
      wider, engine,
      [&](const store::WinnerRow& row) { swept_ps.push_back(row.P); });
  EXPECT_EQ(third.resumed, first.swept);
  for (const std::int64_t P : swept_ps) EXPECT_GT(P, 8);
  EXPECT_EQ(third.table_rows,
            static_cast<std::size_t>(first.swept + third.swept));
  std::remove(path.c_str());
}

TEST(Precompute, ResumeRefusesDifferentSearchOptions) {
  const std::string path = temp_path("precompute_mix.tsv");
  std::remove(path.c_str());
  runtime::TaskEngine engine(2);
  precompute_winners(fast_options(path), engine);

  PrecomputeOptions mixed = fast_options(path);
  mixed.resume = true;
  mixed.search.seeds = 7;  // different sweep: rows would not be comparable
  EXPECT_THROW(precompute_winners(mixed, engine), PrecomputeError);

  // The refused run must not have touched the table.
  store::WinnersTable table;
  EXPECT_TRUE(table.load_file(path)) << table.error();
  std::remove(path.c_str());
}

TEST(Precompute, ResumeRefusesDamagedTable) {
  const std::string path = temp_path("precompute_damaged.tsv");
  std::remove(path.c_str());
  runtime::TaskEngine engine(2);
  precompute_winners(fast_options(path), engine);

  // A partially-written row (no trailing newline, broken CRC) must refuse,
  // not silently resweep over the damage.
  std::string text = slurp(path);
  spit(path, text.substr(0, text.size() - 9));
  PrecomputeOptions resume = fast_options(path);
  resume.resume = true;
  EXPECT_THROW(precompute_winners(resume, engine), PrecomputeError);
  std::remove(path.c_str());
}

TEST(Precompute, PruneFlagIsNotPartOfResumeIdentity) {
  // Pruning is result-identical, so a pruned run may extend an unpruned
  // table (and vice versa) — only result-changing options are pinned.
  const std::string path = temp_path("precompute_prune_mix.tsv");
  std::remove(path.c_str());
  runtime::TaskEngine engine(2);
  PrecomputeOptions unpruned = fast_options(path);
  unpruned.search.prune = false;
  precompute_winners(unpruned, engine);

  PrecomputeOptions pruned = fast_options(path);
  pruned.resume = true;
  pruned.search.prune = true;
  pruned.max_p = 10;
  const PrecomputeReport report = precompute_winners(pruned, engine);
  EXPECT_GT(report.resumed, 0);
  std::remove(path.c_str());
}

TEST(Precompute, CheckpointsAfterEveryRowByDefault) {
  const std::string path = temp_path("precompute_ckpt.tsv");
  std::remove(path.c_str());
  runtime::TaskEngine engine(2);
  PrecomputeOptions options = fast_options(path);
  ASSERT_EQ(options.checkpoint_every, 1);
  // Every newly swept row must already be on disk when progress fires for
  // the NEXT row — that is the at-most-one-row loss guarantee.
  std::int64_t rows_seen = 0;
  const PrecomputeReport report = precompute_winners(
      options, engine, [&](const store::WinnerRow&) {
        if (rows_seen++ == 0) return;  // first row: nothing on disk yet
        store::WinnersTable table;
        EXPECT_TRUE(table.load_file(path)) << table.error();
        EXPECT_GE(table.size(), static_cast<std::size_t>(rows_seen - 1));
      });
  EXPECT_EQ(report.checkpoints, report.swept);
  std::remove(path.c_str());
}

TEST(Precompute, StoreServesEverySweptPWithoutASweep) {
  // Precompute memoizes under the same key a service looks up, so a
  // service on the precomputed store answers every swept P from it.
  const std::string table_path = temp_path("precompute_memo.tsv");
  const std::string store_path = temp_path("precompute_memo.store");
  std::remove(table_path.c_str());
  std::remove(store_path.c_str());
  PrecomputeOptions options = fast_options(table_path);
  options.store_path = store_path;
  std::vector<std::int64_t> swept;
  runtime::TaskEngine engine(2);
  precompute_winners(options, engine, [&](const store::WinnerRow& row) {
    swept.push_back(row.P);
  });
  ASSERT_FALSE(swept.empty());

  ServiceOptions service_options;
  service_options.store_path = store_path;
  service_options.recommend.search = options.search;
  RecommendService service(service_options);
  for (const std::int64_t P : swept) {
    SCOPED_TRACE(P);
    EXPECT_EQ(service.recommend(P, core::Kernel::kCholesky).source,
              Source::kStore);
  }
  EXPECT_EQ(service.stats().sweeps, 0);
  std::remove(table_path.c_str());
  std::remove(store_path.c_str());
}

TEST(Precompute, RejectsInvertedRange) {
  runtime::TaskEngine engine(1);
  PrecomputeOptions options = fast_options(temp_path("precompute_bad.tsv"));
  options.min_p = 10;
  options.max_p = 5;
  EXPECT_THROW(precompute_winners(options, engine), std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::serve
