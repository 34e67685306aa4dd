#include "runtime/task_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace anyblock::runtime {
namespace {

TEST(TaskEngine, RunsASingleTask) {
  TaskEngine engine(2);
  std::atomic<int> counter{0};
  engine.submit([&] { ++counter; }, {});
  engine.wait_all();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_EQ(engine.stats().tasks_executed, 1);
}

TEST(TaskEngine, RejectsZeroWorkers) {
  EXPECT_THROW(TaskEngine(0), std::invalid_argument);
}

TEST(TaskEngine, RejectsUnknownHandle) {
  TaskEngine engine(1);
  EXPECT_THROW(engine.submit([] {}, {{42, AccessMode::kRead}}),
               std::out_of_range);
}

TEST(TaskEngine, SequentialSemanticsOnOneHandle) {
  // 100 read-modify-write tasks on one handle must serialize: the result is
  // deterministic even with many workers.
  TaskEngine engine(4);
  const HandleId h = engine.register_data();
  std::int64_t value = 0;  // protected by the inferred dependency chain
  for (int k = 0; k < 100; ++k) {
    engine.submit([&value, k] { value = value * 2 + k % 3; },
                  {{h, AccessMode::kReadWrite}});
  }
  engine.wait_all();
  std::int64_t expected = 0;
  for (int k = 0; k < 100; ++k) expected = expected * 2 + k % 3;
  EXPECT_EQ(value, expected);
}

TEST(TaskEngine, ReadersRunAfterWriter) {
  TaskEngine engine(4);
  const HandleId h = engine.register_data();
  std::atomic<int> writer_done{0};
  std::atomic<int> readers_after{0};
  engine.submit([&] { writer_done = 1; }, {{h, AccessMode::kWrite}});
  for (int k = 0; k < 8; ++k) {
    engine.submit([&] { readers_after += writer_done.load(); },
                  {{h, AccessMode::kRead}});
  }
  engine.wait_all();
  EXPECT_EQ(readers_after.load(), 8);
}

TEST(TaskEngine, WriteAfterReadWaits) {
  TaskEngine engine(4);
  const HandleId h = engine.register_data();
  std::atomic<int> readers_done{0};
  std::atomic<int> writer_saw{-1};
  engine.submit([] {}, {{h, AccessMode::kWrite}});
  for (int k = 0; k < 6; ++k) {
    engine.submit([&] { ++readers_done; }, {{h, AccessMode::kRead}});
  }
  engine.submit([&] { writer_saw = readers_done.load(); },
                {{h, AccessMode::kWrite}});
  engine.wait_all();
  EXPECT_EQ(writer_saw.load(), 6);
}

TEST(TaskEngine, IndependentTasksRunConcurrently) {
  // With 4 workers and 4 mutually independent blocking tasks, peak
  // concurrency must exceed 1 (they must not serialize).
  TaskEngine engine(4);
  std::atomic<int> arrived{0};
  for (int k = 0; k < 4; ++k) {
    engine.submit(
        [&] {
          ++arrived;
          // Spin until everyone arrived, proving true concurrency.
          while (arrived.load() < 4) {
          }
        },
        {});
  }
  engine.wait_all();
  EXPECT_EQ(engine.stats().peak_concurrency, 4);
}

TEST(TaskEngine, DiamondDependency) {
  //    a
  //   / \    b and c read what a wrote; d writes after both.
  //  b   c
  //   \ /
  //    d
  TaskEngine engine(4);
  const HandleId h = engine.register_data();
  std::vector<int> order;
  std::mutex order_mutex;
  const auto record = [&](int id) {
    const std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
  };
  engine.submit([&] { record(0); }, {{h, AccessMode::kWrite}});
  engine.submit([&] { record(1); }, {{h, AccessMode::kRead}});
  engine.submit([&] { record(2); }, {{h, AccessMode::kRead}});
  engine.submit([&] { record(3); }, {{h, AccessMode::kWrite}});
  engine.wait_all();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(TaskEngine, PriorityBreaksTiesAmongReady) {
  // One worker; submit a low-priority and a high-priority independent task
  // while the worker is blocked: the high-priority one must run first.
  TaskEngine engine(1);
  std::atomic<bool> release{false};
  std::vector<int> order;
  engine.submit(
      [&] {
        while (!release.load()) {
        }
      },
      {}, 0, "blocker");
  engine.submit([&order] { order.push_back(1); }, {}, /*priority=*/1);
  engine.submit([&order] { order.push_back(2); }, {}, /*priority=*/5);
  release = true;
  engine.wait_all();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(TaskEngine, WaitAllIsReusable) {
  TaskEngine engine(2);
  std::atomic<int> counter{0};
  engine.submit([&] { ++counter; }, {});
  engine.wait_all();
  engine.submit([&] { ++counter; }, {});
  engine.wait_all();
  EXPECT_EQ(counter.load(), 2);
}

TEST(TaskEngine, ThrowingTaskRethrownFromWaitAll) {
  TaskEngine engine(2);
  engine.submit([] { throw std::runtime_error("kernel exploded"); }, {});
  try {
    engine.wait_all();
    FAIL() << "wait_all() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "kernel exploded");
  }
  EXPECT_EQ(engine.stats().tasks_failed, 1);
}

TEST(TaskEngine, FailedTaskStillReleasesSuccessors) {
  // Mirrors vmpi::run_ranks: a failure must not deadlock the graph — the
  // dependent task still runs, and wait_all() reports the first error.
  TaskEngine engine(2);
  const HandleId h = engine.register_data();
  std::atomic<bool> successor_ran{false};
  engine.submit([] { throw std::runtime_error("writer failed"); },
                {{h, AccessMode::kWrite}});
  engine.submit([&] { successor_ran = true; }, {{h, AccessMode::kRead}});
  EXPECT_THROW(engine.wait_all(), std::runtime_error);
  EXPECT_TRUE(successor_ran.load());
}

TEST(TaskEngine, EngineReusableAfterFailure) {
  // wait_all() clears the stored exception: the next batch starts clean.
  TaskEngine engine(2);
  engine.submit([] { throw std::runtime_error("first batch"); }, {});
  EXPECT_THROW(engine.wait_all(), std::runtime_error);
  std::atomic<int> counter{0};
  engine.submit([&] { ++counter; }, {});
  engine.wait_all();  // must not rethrow the already-reported error
  EXPECT_EQ(counter.load(), 1);
}

TEST(TaskEngine, FirstOfSeveralFailuresIsReported) {
  TaskEngine engine(1);  // one worker: submission order is execution order
  engine.submit([] { throw std::runtime_error("first"); }, {});
  engine.submit([] { throw std::runtime_error("second"); }, {});
  try {
    engine.wait_all();
    FAIL() << "wait_all() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(engine.stats().tasks_failed, 2);
}

TEST(TaskEngine, FailedTaskIsMarkedInTrace) {
  TaskEngine engine(1);
  engine.enable_tracing();
  engine.submit([] { throw std::runtime_error("boom"); }, {}, 0, "bad_task");
  EXPECT_THROW(engine.wait_all(), std::runtime_error);
  const std::vector<TraceEvent> trace = engine.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].name, "bad_task");
}

TEST(TaskEngine, DependencyEdgeCountIsAccurate) {
  TaskEngine engine(2);
  const HandleId h = engine.register_data();
  engine.submit([] {}, {{h, AccessMode::kWrite}});
  engine.submit([] {}, {{h, AccessMode::kRead}});   // 1 RAW edge
  engine.submit([] {}, {{h, AccessMode::kRead}});   // 1 RAW edge
  engine.submit([] {}, {{h, AccessMode::kWrite}});  // 1 WAW + 2 WAR
  engine.wait_all();
  // All 5 are inferred on every run; the edges actually wired may be fewer
  // if predecessors already retired, and the computation is correct
  // regardless.
  EXPECT_EQ(engine.stats().inferred_edges, 5);
  EXPECT_LE(engine.stats().dependency_edges, 5);
}

}  // namespace
}  // namespace anyblock::runtime
