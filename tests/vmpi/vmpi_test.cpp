#include "vmpi/vmpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "fault/fault.hpp"

namespace anyblock::vmpi {
namespace {

TEST(Vmpi, SingleRankRuns) {
  std::atomic<int> calls{0};
  const RunReport report = run_ranks(1, [&](RankContext& ctx) {
    EXPECT_EQ(ctx.rank(), 0);
    EXPECT_EQ(ctx.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(report.total_messages(), 0);
}

TEST(Vmpi, RejectsZeroRanks) {
  EXPECT_THROW(run_ranks(0, [](RankContext&) {}), std::invalid_argument);
}

TEST(Vmpi, PingPong) {
  run_ranks(2, [](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 7, {1.0, 2.0, 3.0});
      const Payload reply = ctx.recv(1, 8);
      ASSERT_EQ(reply.size(), 3u);
      EXPECT_DOUBLE_EQ(reply[0], 2.0);
      EXPECT_DOUBLE_EQ(reply[2], 6.0);
    } else {
      Payload data = ctx.recv(0, 7);
      for (double& v : data) v *= 2.0;
      ctx.send(0, 8, std::move(data));
    }
  });
}

TEST(Vmpi, TagMatchingIsSelective) {
  // Rank 1 sends two tags; rank 0 receives them in the opposite order.
  run_ranks(2, [](RankContext& ctx) {
    if (ctx.rank() == 1) {
      ctx.send(0, 100, {100.0});
      ctx.send(0, 200, {200.0});
    } else {
      const Payload second = ctx.recv(1, 200);
      const Payload first = ctx.recv(1, 100);
      EXPECT_DOUBLE_EQ(second[0], 200.0);
      EXPECT_DOUBLE_EQ(first[0], 100.0);
    }
  });
}

TEST(Vmpi, SameTagDeliveredInSendOrder) {
  run_ranks(2, [](RankContext& ctx) {
    if (ctx.rank() == 1) {
      for (int k = 0; k < 5; ++k)
        ctx.send(0, 9, {static_cast<double>(k)});
    } else {
      for (int k = 0; k < 5; ++k) {
        const Payload data = ctx.recv(1, 9);
        EXPECT_DOUBLE_EQ(data[0], static_cast<double>(k));
      }
    }
  });
}

TEST(Vmpi, TrafficCountersPerRank) {
  const RunReport report = run_ranks(3, [](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, {1.0, 2.0});
      ctx.send(2, 1, {1.0, 2.0, 3.0});
    } else {
      (void)ctx.recv(0, 1);
    }
  });
  EXPECT_EQ(report.per_rank[0].messages_sent, 2);
  EXPECT_EQ(report.per_rank[0].doubles_sent, 5);
  EXPECT_EQ(report.per_rank[1].messages_sent, 0);
  EXPECT_EQ(report.total_messages(), 2);
  EXPECT_EQ(report.total_doubles(), 5);
}

TEST(Vmpi, RankBodyExceptionPropagates) {
  EXPECT_THROW(run_ranks(2,
                         [](RankContext& ctx) {
                           if (ctx.rank() == 1)
                             throw std::runtime_error("rank failure");
                         }),
               std::runtime_error);
}

/// Rank 2 throws at once while ranks 0 and 1 wait in recv for messages
/// that never come: rank 0 from rank 2, rank 1 from rank 0.  Both waiters
/// must get RunAborted and run_ranks must rethrow rank 2's own error.
void expect_thrown_rank_aborts_the_run(fault::FaultInjector* injector) {
  std::atomic<int> aborted{0};
  const auto body = [&aborted](RankContext& ctx) {
    try {
      if (ctx.rank() == 0) ctx.recv(2, 7);
      if (ctx.rank() == 1) ctx.recv(0, 8);
    } catch (const RunAborted&) {
      ++aborted;
      throw;
    }
    if (ctx.rank() == 2) throw std::logic_error("rank 2 failed");
  };
  EXPECT_THROW(run_ranks(3, body, {/*recorder=*/nullptr, injector}),
               std::logic_error);
  EXPECT_EQ(aborted.load(), 2);
}

TEST(Vmpi, ThrowingRankAbortsEveryBlockedRecv) {
  expect_thrown_rank_aborts_the_run(nullptr);
}

TEST(Vmpi, ThrowingRankAbortsTimedRecvUnderFaults) {
  // Under an injector recv takes the timed path; its default plan would
  // retry for minutes before RecvTimeoutError.
  fault::FaultPlan plan;
  plan.drop = 0.1;
  fault::FaultInjector injector(plan);
  expect_thrown_rank_aborts_the_run(&injector);
}

}  // namespace
}  // namespace anyblock::vmpi
