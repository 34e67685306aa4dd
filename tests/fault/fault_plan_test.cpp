// Property tests for the fault model: schedule determinism, the
// zero-perturbation guarantee of a disabled injector, and the timeout /
// retry / dedup edges of the fault-aware receive path.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/block_cyclic.hpp"
#include "dist/dist_factorization.hpp"
#include "dist/dist_solve.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::fault {
namespace {

TEST(FaultPlan, DefaultConstructedIsFullyDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.message_faults());
  EXPECT_FALSE(plan.enabled());
  EXPECT_NO_THROW(plan.validate());
  // A disabled plan behind an injector must decide "deliver" for everything.
  const FaultInjector injector(plan);
  EXPECT_FALSE(injector.message_faults());
  const Fate fate = injector.fate_of(0, 1, 7, 0, 0);
  EXPECT_FALSE(fate.dropped);
  EXPECT_FALSE(fate.duplicated);
  EXPECT_EQ(fate.delay_seconds, 0.0);
}

TEST(FaultPlan, ValidateRejectsOutOfRangeValues) {
  const auto expect_invalid = [](auto mutate) {
    FaultPlan plan;
    mutate(plan);
    EXPECT_THROW(plan.validate(), std::invalid_argument);
  };
  expect_invalid([](FaultPlan& p) { p.drop = -0.1; });
  expect_invalid([](FaultPlan& p) { p.drop = 1.5; });
  expect_invalid([](FaultPlan& p) { p.drop = 0.6; p.duplicate = 0.6; });
  expect_invalid([](FaultPlan& p) { p.delay = 0.1; p.delay_ms = -1.0; });
  expect_invalid([](FaultPlan& p) { p.recv_timeout_ms = 0.0; });
  expect_invalid([](FaultPlan& p) { p.max_retries = -1; });
  expect_invalid([](FaultPlan& p) { p.link_jitter = 1.0; });
  expect_invalid([](FaultPlan& p) { p.slow_node_fraction = 0.5;
                                    p.slow_node_speed = 0.0; });
  expect_invalid([](FaultPlan& p) {
    p.stalls.push_back({/*rank=*/-1, 0, 0, 1.0});
  });
  expect_invalid([](FaultPlan& p) {
    p.stalls.push_back({/*rank=*/0, /*first_seq=*/5, /*last_seq=*/2, 1.0});
  });
}

TEST(FaultPlan, SameSeedProducesIdenticalSchedule) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  plan.delay = 0.2;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  plan.seed = 1235;
  const FaultInjector other(plan);
  int diverged = 0;
  for (int source = 0; source < 3; ++source)
    for (int dest = 0; dest < 3; ++dest)
      for (std::int64_t tag = 0; tag < 4; ++tag)
        for (std::uint64_t seq = 0; seq < 8; ++seq)
          for (int attempt = 0; attempt < 2; ++attempt) {
            const Fate fa = a.fate_of(source, dest, tag, seq, attempt);
            const Fate fb = b.fate_of(source, dest, tag, seq, attempt);
            EXPECT_EQ(fa.dropped, fb.dropped);
            EXPECT_EQ(fa.duplicated, fb.duplicated);
            EXPECT_EQ(fa.delay_seconds, fb.delay_seconds);
            const Fate fo = other.fate_of(source, dest, tag, seq, attempt);
            diverged += fo.dropped != fa.dropped ||
                        fo.duplicated != fa.duplicated;
          }
  // A different seed must yield a genuinely different schedule.
  EXPECT_GT(diverged, 0);
}

TEST(FaultPlan, StallWindowAddsDelayOnlyInsideTheWindow) {
  FaultPlan plan;
  plan.stalls.push_back({/*rank=*/0, /*first_seq=*/2, /*last_seq=*/4,
                         /*extra_delay_ms=*/50.0});
  const FaultInjector injector(plan);
  EXPECT_TRUE(injector.message_faults());
  EXPECT_GE(injector.fate_of(0, 1, 7, 3, 0).delay_seconds, 0.05);
  EXPECT_EQ(injector.fate_of(0, 1, 7, 1, 0).delay_seconds, 0.0);
  EXPECT_EQ(injector.fate_of(0, 1, 7, 5, 0).delay_seconds, 0.0);
  // The window keys on the sending rank, not the destination.
  EXPECT_EQ(injector.fate_of(1, 0, 7, 3, 0).delay_seconds, 0.0);
}

TEST(ParseFaultSpec, ParsesTheDocumentedExample) {
  const FaultPlan plan =
      parse_fault_spec("drop=0.01,delay-ms=5,dup=0.001,seed=42");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.01);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.001);
  EXPECT_DOUBLE_EQ(plan.delay_ms, 5.0);
  // delay-ms without an explicit delay probability means "every message
  // not otherwise fated is delayed".
  EXPECT_DOUBLE_EQ(plan.delay, 1.0 - 0.01 - 0.001);
  EXPECT_TRUE(plan.message_faults());
}

TEST(ParseFaultSpec, ParsesRecoveryAndSimKeys) {
  const FaultPlan plan = parse_fault_spec(
      "drop=0.05,timeout-ms=25,retries=6,jitter=0.1,slow-frac=0.25,"
      "slow-speed=0.5,stall=3:10:20:7.5");
  EXPECT_DOUBLE_EQ(plan.recv_timeout_ms, 25.0);
  EXPECT_EQ(plan.max_retries, 6);
  EXPECT_DOUBLE_EQ(plan.link_jitter, 0.1);
  EXPECT_DOUBLE_EQ(plan.slow_node_fraction, 0.25);
  EXPECT_DOUBLE_EQ(plan.slow_node_speed, 0.5);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].rank, 3);
  EXPECT_EQ(plan.stalls[0].first_seq, 10u);
  EXPECT_EQ(plan.stalls[0].last_seq, 20u);
  EXPECT_DOUBLE_EQ(plan.stalls[0].extra_delay_ms, 7.5);
}

TEST(ParseFaultSpec, RejectsUnknownKeysAndMalformedValues) {
  EXPECT_THROW(parse_fault_spec("chaos=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=lots"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("stall=1:2"), std::invalid_argument);
}

/// Structural view of a trace: per-track event signature sequences with the
/// run-dependent parts (timestamps, flow ids) stripped.
std::vector<std::vector<std::tuple<int, std::string, int, int, std::int64_t,
                                   std::int64_t>>>
trace_shape(const obs::Trace& trace) {
  std::vector<std::vector<std::tuple<int, std::string, int, int, std::int64_t,
                                     std::int64_t>>>
      shape;
  for (const obs::Track& track : trace.tracks) {
    auto& events = shape.emplace_back();
    for (const obs::Event& event : track.events)
      events.emplace_back(static_cast<int>(event.kind), event.name,
                          event.source, event.dest, event.tag, event.bytes);
  }
  return shape;
}

TEST(DisabledInjector, IsByteIdenticalToNoInjectorRun) {
  // The zero-cost-when-disabled contract: threading a disabled injector
  // through a distributed run must change nothing observable — factored
  // bits, per-rank traffic counters, and the recorded event structure.
  const core::PatternDistribution distribution(core::make_2dbc(2, 2), 6,
                                               /*symmetric=*/false);
  Rng rng(21);
  const linalg::DenseMatrix original = linalg::diag_dominant_matrix(24, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, 4);

  obs::Recorder plain_recorder;
  const dist::DistRunResult plain =
      dist::distributed_lu(input, distribution, {}, &plain_recorder);
  ASSERT_TRUE(plain.ok);

  FaultInjector disabled{FaultPlan{}};
  obs::Recorder faulty_recorder;
  const dist::DistRunResult with_injector = dist::distributed_lu(
      input, distribution, {}, &faulty_recorder, &disabled);
  ASSERT_TRUE(with_injector.ok);

  for (std::int64_t i = 0; i < plain.factored.dim(); ++i)
    for (std::int64_t j = 0; j < plain.factored.dim(); ++j)
      EXPECT_DOUBLE_EQ(plain.factored.at(i, j), with_injector.factored.at(i, j));
  EXPECT_EQ(plain.tile_messages, with_injector.tile_messages);
  EXPECT_EQ(plain.tile_messages_received,
            with_injector.tile_messages_received);
  ASSERT_EQ(plain.report.per_rank.size(), with_injector.report.per_rank.size());
  for (std::size_t rank = 0; rank < plain.report.per_rank.size(); ++rank) {
    EXPECT_EQ(plain.report.per_rank[rank].messages_sent,
              with_injector.report.per_rank[rank].messages_sent);
    EXPECT_EQ(plain.report.per_rank[rank].doubles_sent,
              with_injector.report.per_rank[rank].doubles_sent);
    EXPECT_EQ(plain.report.per_rank[rank].messages_received,
              with_injector.report.per_rank[rank].messages_received);
    EXPECT_EQ(plain.report.per_rank[rank].doubles_received,
              with_injector.report.per_rank[rank].doubles_received);
  }
  const FaultStats stats = with_injector.report.faults;
  EXPECT_EQ(stats.drops, 0);
  EXPECT_EQ(stats.duplicates, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.timeout_waits, 0);
  EXPECT_EQ(stats.dedup_discards, 0);

  const obs::Trace plain_trace = plain_recorder.take();
  const obs::Trace faulty_trace = faulty_recorder.take();
  EXPECT_EQ(faulty_trace.count(obs::EventKind::kFault), 0);
  EXPECT_EQ(trace_shape(plain_trace), trace_shape(faulty_trace));
}

TEST(TimedRecv, TimeoutThrowsTypedErrorNamingSourceAndTag) {
  std::atomic<int> caught{0};
  vmpi::run_ranks(2, [&](vmpi::RankContext& ctx) {
    if (ctx.rank() != 1) return;  // rank 0 stays silent on purpose
    try {
      ctx.recv(0, 7, vmpi::RecvOptions{/*timeout_seconds=*/0.01,
                                       /*max_retries=*/0});
      ADD_FAILURE() << "recv returned without a message";
    } catch (const vmpi::RecvTimeoutError& error) {
      EXPECT_EQ(error.source(), 0);
      EXPECT_EQ(error.tag(), 7);
      EXPECT_EQ(error.attempts(), 1);
      caught.fetch_add(1);
    }
  });
  EXPECT_EQ(caught.load(), 1);
}

TEST(TimedRecv, RetryRecoversDroppedMessageWithExactCounts) {
  FaultPlan plan;
  plan.drop = 1.0;                 // every transmission is dropped...
  plan.max_drops_per_message = 2;  // ...until the second retransmission
  plan.recv_timeout_ms = 20.0;
  plan.max_retries = 12;
  FaultInjector injector(plan);
  obs::Recorder recorder;
  vmpi::Payload received;
  std::latch sent(1);  // the drop happened before the receiver waits
  const vmpi::RunReport report = vmpi::run_ranks(
      2,
      [&](vmpi::RankContext& ctx) {
        if (ctx.rank() == 0) {
          ctx.send(1, 5, vmpi::Payload{1.0, 2.0, 3.0});
          sent.count_down();
        } else {
          sent.wait();
          received = ctx.recv(0, 5);
        }
      },
      {&recorder, &injector});
  EXPECT_EQ(received, (vmpi::Payload{1.0, 2.0, 3.0}));
  // Deterministic tally: original send dropped, first retransmit dropped,
  // second retransmit capped by max_drops_per_message and delivered.
  EXPECT_EQ(report.faults.drops, 2);
  EXPECT_EQ(report.faults.retries, 2);
  EXPECT_EQ(report.faults.timeout_waits, 2);
  EXPECT_EQ(report.faults.dedup_discards, 0);
  // App-level counters are untouched by the recovery traffic.
  EXPECT_EQ(report.per_rank[0].messages_sent, 1);
  EXPECT_EQ(report.per_rank[1].messages_received, 1);

  // The recovery shows up as kFault events and fault_* metrics rows, never
  // as extra kSend/kRecv events.
  const obs::Trace trace = recorder.take();
  EXPECT_EQ(trace.count(obs::EventKind::kSend), 1);
  EXPECT_EQ(trace.count(obs::EventKind::kRecv), 1);
  EXPECT_GT(trace.count(obs::EventKind::kFault), 0);
  bool saw_retry = false;
  bool saw_timeout = false;
  for (const obs::Track& track : trace.tracks)
    for (const obs::Event& event : track.events) {
      saw_retry = saw_retry || event.name == "retry";
      saw_timeout = saw_timeout || event.name == "timeout";
    }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_timeout);
  std::ostringstream csv;
  obs::write_metrics_csv(csv, trace);
  EXPECT_NE(csv.str().find("fault_retry"), std::string::npos);
  EXPECT_NE(csv.str().find("fault_timeout"), std::string::npos);
}

TEST(TimedRecv, ExhaustedRetriesEscapeRunRanks) {
  FaultPlan plan;
  plan.drop = 1.0;  // unbounded: no retransmission can ever get through
  plan.recv_timeout_ms = 5.0;
  plan.max_retries = 2;
  FaultInjector injector(plan);
  std::latch sent(1);
  EXPECT_THROW(
      vmpi::run_ranks(
          2,
          [&sent](vmpi::RankContext& ctx) {
            if (ctx.rank() == 0) {
              ctx.send(1, 9, vmpi::Payload{4.0});
              sent.count_down();
            } else {
              sent.wait();
              ctx.recv(0, 9);
            }
          },
          {nullptr, &injector}),
      vmpi::RecvTimeoutError);
  EXPECT_EQ(injector.stats().retries, 2);
}

TEST(Duplicates, AreDiscardedBySequenceNumber) {
  FaultPlan plan;
  plan.duplicate = 1.0;  // every message arrives twice
  FaultInjector injector(plan);
  std::vector<double> values;
  const vmpi::RunReport report = vmpi::run_ranks(
      2,
      [&](vmpi::RankContext& ctx) {
        if (ctx.rank() == 0) {
          for (int i = 0; i < 4; ++i)
            ctx.send(1, 7, vmpi::Payload{static_cast<double>(i)});
        } else {
          for (int i = 0; i < 4; ++i) values.push_back(ctx.recv(0, 7)[0]);
        }
      },
      {nullptr, &injector});
  EXPECT_EQ(values, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(report.faults.duplicates, 4);
  // Receives discard every stale copy they scan past; the duplicate of the
  // last message has no later receive to collide with.
  EXPECT_EQ(report.faults.dedup_discards, 3);
  EXPECT_EQ(report.per_rank[0].messages_sent, 4);
  EXPECT_EQ(report.per_rank[1].messages_received, 4);
}

TEST(Delays, PreservePerStreamFifoOrder) {
  FaultPlan plan;
  plan.delay = 1.0;  // every message takes the delay-thread detour
  plan.delay_ms = 2.0;
  FaultInjector injector(plan);
  std::vector<double> values;
  const vmpi::RunReport report = vmpi::run_ranks(
      2,
      [&](vmpi::RankContext& ctx) {
        if (ctx.rank() == 0) {
          for (int i = 0; i < 5; ++i)
            ctx.send(1, 3, vmpi::Payload{static_cast<double>(i)});
        } else {
          for (int i = 0; i < 5; ++i) values.push_back(ctx.recv(0, 3)[0]);
        }
      },
      {nullptr, &injector});
  // Jittered delays can reorder deliveries on the wire; sequence numbers
  // must re-establish the send order at the receiver.
  EXPECT_EQ(values, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(report.faults.delays, 5);
  EXPECT_EQ(report.faults.drops, 0);
}

TEST(SimFaults, VirtualTimeRecoveryIsDeterministicAndCountsStay) {
  const core::PatternDistribution distribution(core::make_2dbc(2, 2), 6,
                                               /*symmetric=*/true);
  sim::MachineConfig machine;
  machine.nodes = 4;
  const sim::SimReport clean = sim::simulate_cholesky(6, distribution, machine);

  machine.faults.seed = 7;
  machine.faults.drop = 0.3;
  machine.faults.recv_timeout_ms = 5.0;
  const sim::SimReport faulty =
      sim::simulate_cholesky(6, distribution, machine);
  const sim::SimReport again = sim::simulate_cholesky(6, distribution, machine);
  // Virtual-time recovery: app-level message counts still match the clean
  // run, drops were recovered by retries, and the perturbed schedule is a
  // pure function of the seed.
  EXPECT_EQ(faulty.messages, clean.messages);
  EXPECT_GT(faulty.faults.drops, 0);
  EXPECT_EQ(faulty.faults.retries, faulty.faults.drops);
  EXPECT_GE(faulty.makespan_seconds, clean.makespan_seconds);
  EXPECT_DOUBLE_EQ(faulty.makespan_seconds, again.makespan_seconds);
  EXPECT_EQ(faulty.faults.drops, again.faults.drops);

  machine.faults = fault::FaultPlan{};
  machine.faults.link_jitter = 0.2;
  machine.faults.slow_node_fraction = 0.5;
  machine.faults.slow_node_speed = 0.5;
  const sim::SimReport jittered =
      sim::simulate_cholesky(6, distribution, machine);
  const sim::SimReport jittered_again =
      sim::simulate_cholesky(6, distribution, machine);
  EXPECT_EQ(jittered.messages, clean.messages);
  EXPECT_DOUBLE_EQ(jittered.makespan_seconds,
                   jittered_again.makespan_seconds);
  // Link/node perturbation alone never drops anything.
  EXPECT_EQ(jittered.faults.drops, 0);
  EXPECT_EQ(jittered.faults.retries, 0);
}

TEST(DistSolve, SurvivesDropsBitIdentically) {
  const core::PatternDistribution distribution(core::make_2dbc(2, 2), 5,
                                               /*symmetric=*/false);
  Rng rng(31);
  const linalg::DenseMatrix original = linalg::diag_dominant_matrix(20, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, 4);
  std::vector<double> b(20);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = rng.uniform() * 2.0 - 1.0;

  const dist::DistSolveResult clean =
      dist::distributed_lu_solve(input, b, distribution);
  ASSERT_TRUE(clean.ok);

  FaultPlan plan;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.recv_timeout_ms = 25.0;
  FaultInjector injector(plan);
  const dist::DistSolveResult faulty = dist::distributed_lu_solve(
      input, b, distribution, {}, nullptr, &injector);
  ASSERT_TRUE(faulty.ok);
  ASSERT_EQ(clean.x.size(), faulty.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i)
    EXPECT_DOUBLE_EQ(clean.x[i], faulty.x[i]);
  EXPECT_EQ(clean.factor_messages, faulty.factor_messages);
  EXPECT_EQ(clean.solve_messages, faulty.solve_messages);
}

}  // namespace
}  // namespace anyblock::fault
