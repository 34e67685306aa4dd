#include "store/winners_table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/bounds.hpp"
#include "core/cost.hpp"
#include "core/gcrm.hpp"
#include "core/pattern_search.hpp"
#include "core/recommend.hpp"
#include "serve/recommend_service.hpp"

namespace anyblock::store {
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

WinnersTable sample_table() {
  WinnersTable table;
  core::GcrmSearchOptions options;
  options.seeds = 10;
  table.set_options(options);
  table.add({23, 24, 13317451383556275218ull, 6.0416666666666666});
  table.add({31, 23, 8561350423227967952ull, 7.0434782608695645});
  return table;
}

TEST(WinnersTable, RoundTripPreservesRowsAndOptions) {
  const std::string path = temp_path("winners_roundtrip.tsv");
  const WinnersTable table = sample_table();
  ASSERT_TRUE(table.save_file(path));

  WinnersTable loaded;
  ASSERT_TRUE(loaded.load_file(path)) << loaded.error();
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.max_p(), 31);
  EXPECT_TRUE(loaded.options() == table.options());
  const auto row = loaded.find(23);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->r, 24);
  EXPECT_EQ(row->seed, 13317451383556275218ull);
  EXPECT_EQ(row->cost, 6.0416666666666666);  // hexfloat: bit-exact
  EXPECT_FALSE(loaded.find(24).has_value());
  std::remove(path.c_str());
}

TEST(WinnersTable, DamagedFileIsRejectedWhole) {
  // A shipped artifact is all-or-nothing: any damage rejects the file.
  const std::string path = temp_path("winners_damaged.tsv");
  ASSERT_TRUE(sample_table().save_file(path));
  std::string text = slurp(path);
  const std::size_t at = text.find('\t');
  ASSERT_NE(at, std::string::npos);
  text[at + 1] = '9';
  spit(path, text);

  WinnersTable loaded;
  EXPECT_FALSE(loaded.load_file(path));
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_FALSE(loaded.error().empty());
  std::remove(path.c_str());
}

TEST(WinnersTable, MissingAndForeignVersionRejected) {
  WinnersTable loaded;
  EXPECT_FALSE(loaded.load_file(temp_path("winners_nonexistent.tsv")));
  EXPECT_FALSE(loaded.error().empty());

  const std::string path = temp_path("winners_version.tsv");
  ASSERT_TRUE(sample_table().save_file(path));
  std::string text = slurp(path);
  const std::string header = "anyblock-gcrm-winners 1";
  ASSERT_EQ(text.rfind(header, 0), 0u);
  text.replace(0, header.size(), "anyblock-gcrm-winners 7");
  spit(path, text);
  EXPECT_FALSE(loaded.load_file(path));
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(WinnersTable, SaveIsAtomic) {
  const std::string path = temp_path("winners_atomic.tsv");
  ASSERT_TRUE(sample_table().save_file(path));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(WinnersTable, RowsRebuildTheRecordedWinner) {
  // The table's whole point: (P, r, seed) must deterministically rebuild a
  // pattern whose cost equals the recorded one.
  core::GcrmSearchOptions options;
  options.seeds = 10;
  for (const std::int64_t P : {23, 31}) {
    const core::GcrmSearchResult search = core::gcrm_search(P, options);
    ASSERT_TRUE(search.found) << P;
    const core::GcrmResult rebuilt =
        core::gcrm_build(P, search.best_r, search.best_seed);
    ASSERT_TRUE(rebuilt.valid) << P;
    EXPECT_EQ(core::cholesky_cost(rebuilt.pattern), search.best_cost) << P;
    EXPECT_EQ(rebuilt.pattern, search.best) << P;
  }
}

/// Validates the shipped artifact (data/gcrm_winners.tsv): loadable, rows
/// rebuild bit-exactly, and the recommendations it serves sit inside the
/// theoretical envelopes.  Skips cleanly when absent (source-only checkout).
std::string find_artifact() {
  for (const char* prefix : {"", "../", "../../", "/root/repo/"}) {
    const std::string path = std::string(prefix) + "data/gcrm_winners.tsv";
    if (std::ifstream(path).good()) return path;
  }
  return {};
}

TEST(WinnersArtifact, ShippedRowsRebuildExactly) {
  const std::string path = find_artifact();
  if (path.empty()) GTEST_SKIP() << "data/gcrm_winners.tsv not present";
  WinnersTable table;
  ASSERT_TRUE(table.load_file(path)) << table.error();
  EXPECT_TRUE(table.options() == core::GcrmSearchOptions{})
      << "shipped table must use the default search budget";
  EXPECT_GE(table.max_p(), 64);
  // Spot-rebuild a few rows across the range (a full rebuild is the
  // precompute command's job, not a unit test's).
  for (const std::int64_t P : {2, 13, 23, 40, 64}) {
    SCOPED_TRACE(P);
    const auto row = table.find(P);
    ASSERT_TRUE(row.has_value());
    const core::GcrmResult rebuilt = core::gcrm_build(P, row->r, row->seed);
    ASSERT_TRUE(rebuilt.valid);
    EXPECT_EQ(core::cholesky_cost(rebuilt.pattern), row->cost);
    EXPECT_TRUE(rebuilt.pattern.validate().empty());
  }
}

TEST(WinnersArtifact, RecommendationsStayInsideTheEnvelopes) {
  // Every P in [2, 64], both kernels: LU from the closed form, Cholesky as
  // the service serves it from the shipped table.
  const std::string path = find_artifact();
  if (path.empty()) GTEST_SKIP() << "data/gcrm_winners.tsv not present";
  serve::ServiceOptions options;
  options.table_path = path;
  serve::RecommendService service(options);
  ASSERT_TRUE(service.table_usable());
  for (std::int64_t P = 2; P <= 64; ++P) {
    SCOPED_TRACE(P);
    const core::Pattern lu =
        core::recommend_pattern(P, core::Kernel::kLu).pattern;
    EXPECT_EQ(lu.num_nodes(), P);
    EXPECT_TRUE(lu.validate().empty());
    EXPECT_TRUE(lu.is_balanced());
    EXPECT_LE(core::lu_cost(lu), core::g2dbc_cost_bound(P) + 1e-9);

    const serve::ServedRecommendation served =
        service.recommend(P, core::Kernel::kCholesky);
    EXPECT_EQ(served.source, serve::Source::kTable);
    const core::Pattern& chol = served.rec.pattern;
    EXPECT_EQ(chol.num_nodes(), P);
    EXPECT_TRUE(chol.is_square());
    EXPECT_TRUE(chol.validate().empty());
    EXPECT_TRUE(chol.is_balanced(1));
    // Symmetric winners sit at or below the SBC reference, within rounding.
    EXPECT_LE(core::cholesky_cost(chol), core::sbc_cost_reference(P) + 1.0);
  }
}

}  // namespace
}  // namespace anyblock::store
