#include "serve/recommend_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/pattern_search.hpp"
#include "core/recommend.hpp"
#include "store/winners_table.hpp"

namespace anyblock::serve {
namespace {

ServiceOptions fast_service() {
  ServiceOptions options;
  options.workers = 2;
  options.recommend.search.seeds = 10;  // keep cold sweeps quick in tests
  return options;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(RecommendService, ServesExactlyWhatRecommendPatternReturns) {
  RecommendService service(fast_service());
  for (const std::int64_t P : {5, 12, 23}) {
    for (const core::Kernel kernel :
         {core::Kernel::kLu, core::Kernel::kCholesky}) {
      SCOPED_TRACE(P);
      const core::Recommendation direct =
          core::recommend_pattern(P, kernel, fast_service().recommend);
      const ServedRecommendation served = service.recommend(P, kernel);
      EXPECT_EQ(served.rec.pattern, direct.pattern);
      EXPECT_EQ(served.rec.scheme, direct.scheme);
      EXPECT_EQ(served.rec.cost, direct.cost);  // bit-exact
      EXPECT_EQ(served.rec.rationale, direct.rationale);
    }
  }
}

TEST(RecommendService, SecondQueryHitsTheStoreFast) {
  RecommendService service(fast_service());
  const ServedRecommendation cold =
      service.recommend(23, core::Kernel::kCholesky);
  EXPECT_EQ(cold.source, Source::kSearch);

  const ServedRecommendation warm =
      service.recommend(23, core::Kernel::kCholesky);
  EXPECT_EQ(warm.source, Source::kStore);
  EXPECT_EQ(warm.rec.pattern, cold.rec.pattern);
  EXPECT_EQ(warm.rec.cost, cold.rec.cost);
  // The acceptance criterion: a warm-cache lookup answers in < 1 ms.
  EXPECT_LT(warm.seconds, 1e-3);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.store_hits, 1);
  EXPECT_EQ(stats.sweeps, 1);
}

TEST(RecommendService, LuQueriesAreMemoizedToo) {
  RecommendService service(fast_service());
  EXPECT_EQ(service.recommend(23, core::Kernel::kLu).source,
            Source::kClosedForm);
  EXPECT_EQ(service.recommend(23, core::Kernel::kLu).source, Source::kStore);
  // Symmetric and LU entries are distinct keys for the same P.
  EXPECT_EQ(service.recommend(23, core::Kernel::kCholesky).source,
            Source::kSearch);
  EXPECT_EQ(service.stats().lu_builds, 1);
}

TEST(RecommendService, BatchAnswersInInputOrderAndMemoizesDuplicates) {
  RecommendService service(fast_service());
  const std::vector<std::int64_t> nodes = {7, 23, 7, 23};
  const std::vector<ServedRecommendation> served =
      service.recommend_batch(nodes, core::Kernel::kCholesky);
  ASSERT_EQ(served.size(), 4u);
  EXPECT_EQ(served[0].source, Source::kSearch);
  EXPECT_EQ(served[1].source, Source::kSearch);
  EXPECT_EQ(served[2].source, Source::kStore);
  EXPECT_EQ(served[3].source, Source::kStore);
  EXPECT_EQ(served[0].rec.pattern, served[2].rec.pattern);
  EXPECT_EQ(served[1].rec.pattern, served[3].rec.pattern);
}

TEST(RecommendService, PersistentStoreSurvivesRestart) {
  const std::string path = temp_path("service_store.db");
  std::remove(path.c_str());
  ServiceOptions options = fast_service();
  options.store_path = path;
  {
    RecommendService first(options);
    EXPECT_EQ(first.recommend(23, core::Kernel::kCholesky).source,
              Source::kSearch);
  }
  RecommendService second(options);
  const ServedRecommendation warm =
      second.recommend(23, core::Kernel::kCholesky);
  EXPECT_EQ(warm.source, Source::kStore);
  EXPECT_LT(warm.seconds, 1e-3);
  std::remove(path.c_str());
}

TEST(RecommendService, WinnersTableAnswersWithoutASweep) {
  // Build a table from a real sweep, then serve from a fresh service: the
  // answer must come from the table (one gcrm_build, no sweep) and match
  // the direct recommendation bit-for-bit.
  const std::string path = temp_path("service_table.tsv");
  const core::GcrmSearchOptions search = fast_service().recommend.search;
  const core::GcrmSearchResult swept = core::gcrm_search(23, search);
  ASSERT_TRUE(swept.found);
  store::WinnersTable table;
  table.set_options(search);
  table.add({23, swept.best_r, swept.best_seed, swept.best_cost});
  ASSERT_TRUE(table.save_file(path));

  ServiceOptions options = fast_service();
  options.table_path = path;
  RecommendService service(options);
  ASSERT_TRUE(service.table_usable());
  const ServedRecommendation served =
      service.recommend(23, core::Kernel::kCholesky);
  EXPECT_EQ(served.source, Source::kTable);
  const core::Recommendation direct = core::recommend_pattern(
      23, core::Kernel::kCholesky, fast_service().recommend);
  EXPECT_EQ(served.rec.pattern, direct.pattern);
  EXPECT_EQ(served.rec.cost, direct.cost);
  EXPECT_EQ(service.stats().sweeps, 0);

  // Once served, the store memoizes it: the table is not consulted again.
  EXPECT_EQ(service.recommend(23, core::Kernel::kCholesky).source,
            Source::kStore);
  std::remove(path.c_str());
}

TEST(RecommendService, MismatchedTableOptionsFallBackToSweep) {
  // A table swept under a different budget must never answer.
  const std::string path = temp_path("service_table_mismatch.tsv");
  store::WinnersTable table;
  core::GcrmSearchOptions other = fast_service().recommend.search;
  other.seeds = 99;
  table.set_options(other);
  table.add({23, 24, 1, 6.0});
  ASSERT_TRUE(table.save_file(path));

  ServiceOptions options = fast_service();
  options.table_path = path;
  RecommendService service(options);
  EXPECT_FALSE(service.table_usable());
  EXPECT_EQ(service.recommend(23, core::Kernel::kCholesky).source,
            Source::kSearch);
  std::remove(path.c_str());
}

TEST(RecommendService, MetricRowsExposeCountersAndLatency) {
  RecommendService service(fast_service());
  (void)service.recommend(23, core::Kernel::kCholesky);
  (void)service.recommend(23, core::Kernel::kCholesky);
  bool saw_queries = false;
  bool saw_warm = false;
  bool saw_store_hits = false;
  for (const auto& [name, value] : service.metric_rows()) {
    if (name == "serve_queries") {
      saw_queries = true;
      EXPECT_DOUBLE_EQ(value, 2.0);
    }
    if (name == "serve_warm_count") {
      saw_warm = true;
      EXPECT_DOUBLE_EQ(value, 1.0);
    }
    if (name == "store_hits") {
      saw_store_hits = true;
      EXPECT_DOUBLE_EQ(value, 1.0);
    }
  }
  EXPECT_TRUE(saw_queries);
  EXPECT_TRUE(saw_warm);
  EXPECT_TRUE(saw_store_hits);
}

TEST(RecommendService, ConcurrentQueriesAreSafeAndConsistent) {
  // The TSan target: many threads hammering the same service — some hitting
  // the warm path, some racing on the cold path — must neither race nor
  // disagree.  One thread keeps writing fresh P values while readers loop
  // over a fixed set.
  RecommendService service(fast_service());
  const core::Recommendation expected = core::recommend_pattern(
      7, core::Kernel::kCholesky, fast_service().recommend);

  constexpr int kReaders = 3;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.emplace_back([&service] {
    for (const std::int64_t P : {5, 6, 8, 9, 10})
      (void)service.recommend(P, core::Kernel::kCholesky);
  });
  for (int i = 0; i < kReaders; ++i)
    threads.emplace_back([&service, &expected] {
      for (int round = 0; round < kRounds; ++round) {
        const ServedRecommendation served =
            service.recommend(7, core::Kernel::kCholesky);
        ASSERT_EQ(served.rec.pattern, expected.pattern);
        ASSERT_EQ(served.rec.cost, expected.cost);
      }
    });
  for (auto& t : threads) t.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 5 + kReaders * kRounds);
}

TEST(RecommendService, ConcurrentProcessesShareTheManifest) {
  // Cross-"process" story, approximated with two store-backed services on
  // one manifest: the writer's atomic rename means the reader (after
  // reload) sees complete entries, never torn ones.
  const std::string path = temp_path("service_shared.db");
  std::remove(path.c_str());
  ServiceOptions options = fast_service();
  options.store_path = path;
  RecommendService writer(options);
  RecommendService reader(options);

  std::thread writing([&writer] {
    for (const std::int64_t P : {5, 7, 11})
      (void)writer.recommend(P, core::Kernel::kCholesky);
  });
  std::thread reading([&reader] {
    for (int round = 0; round < 20; ++round) {
      ASSERT_TRUE(reader.pattern_store().reload());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  writing.join();
  reading.join();

  ASSERT_TRUE(reader.pattern_store().reload());
  EXPECT_EQ(reader.pattern_store().size(), 3u);
  // Everything the reader sees passed its CRC.
  EXPECT_EQ(reader.pattern_store().stats().evicted_corrupt, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anyblock::serve
