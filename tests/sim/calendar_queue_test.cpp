// Property tests for the calendar event queue: against the binary-heap
// oracle it must pop *exactly* the same event sequence — same times, same
// sequence numbers, same payloads — for adversarial time distributions
// (uniform, bursty ties, exponential tails, far-future retransmit
// backoffs), interleaved with pops, regardless of how the bucket ring
// resizes underneath.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/oracle/binary_heap_event_queue.hpp"

namespace anyblock::sim {
namespace {

Event make_event(double time, std::uint64_t sequence,
                 Event::Kind kind = Event::Kind::kTaskFinish) {
  Event event;
  event.time = time;
  event.kind = kind;
  event.a = static_cast<std::int64_t>(sequence) * 7 + 1;
  event.b = static_cast<std::int32_t>(sequence % 5);
  event.c = static_cast<std::int32_t>(sequence % 3);
  event.sequence = sequence;
  return event;
}

void expect_same_event(const Event& x, const Event& y) {
  EXPECT_EQ(x.time, y.time);
  EXPECT_EQ(x.sequence, y.sequence);
  EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
  EXPECT_EQ(x.a, y.a);
  EXPECT_EQ(x.b, y.b);
  EXPECT_EQ(x.c, y.c);
}

/// Feeds the same stream to both queues with an interleaved pop pattern
/// and checks the popped sequences agree event for event.
void check_against_oracle(const std::vector<Event>& stream,
                          double pop_probability, std::uint64_t seed) {
  CalendarQueue calendar;
  BinaryHeapEventQueue heap;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (const Event& event : stream) {
    calendar.push(event);
    heap.push(event);
    while (!heap.empty() && coin(rng) < pop_probability) {
      ASSERT_FALSE(calendar.empty());
      expect_same_event(calendar.pop(), heap.pop());
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    expect_same_event(calendar.pop(), heap.pop());
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(CalendarQueue, UniformTimesMatchTheHeapOracle) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> uniform(0.0, 100.0);
  std::vector<Event> stream;
  for (std::uint64_t s = 0; s < 5000; ++s)
    stream.push_back(make_event(uniform(rng), s));
  check_against_oracle(stream, 0.3, 11);
  check_against_oracle(stream, 0.9, 12);
}

TEST(CalendarQueue, SimultaneousTimestampsPopInSequenceOrder) {
  // Heavy ties: only a handful of distinct times.  Order must fall back to
  // the push sequence exactly (the determinism the equivalence suite
  // depends on).
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<int> pick(0, 6);
  std::vector<Event> stream;
  for (std::uint64_t s = 0; s < 4000; ++s)
    stream.push_back(make_event(static_cast<double>(pick(rng)), s));
  check_against_oracle(stream, 0.2, 21);

  // All-identical times, including time zero.
  std::vector<Event> zeros;
  for (std::uint64_t s = 0; s < 500; ++s) zeros.push_back(make_event(0.0, s));
  check_against_oracle(zeros, 0.5, 22);
}

TEST(CalendarQueue, RetransmitBackoffTailsStaySorted) {
  // The DES pushes mostly near-now events plus rare exponentially backed
  // off retransmissions — a long tail many bucket-years away.  Mix kinds
  // so payload propagation is covered too.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<Event> stream;
  double now = 0.0;
  for (std::uint64_t s = 0; s < 6000; ++s) {
    now += uniform(rng) * 1e-3;
    if (s % 97 == 0) {
      const double backoff = 0.2 * std::pow(2.0, static_cast<double>(s % 13));
      stream.push_back(
          make_event(now + backoff, s, Event::Kind::kRetransmit));
    } else if (s % 3 == 0) {
      stream.push_back(make_event(now + 1e-5, s, Event::Kind::kArrival));
    } else {
      stream.push_back(make_event(now + 1e-4, s));
    }
  }
  check_against_oracle(stream, 0.4, 31);
}

TEST(CalendarQueue, MonotoneDrainLikeTheSimulatorMainLoop) {
  // Push-pop pattern of a real DES: pop the earliest event, push a few
  // events slightly in the future, repeat.  Exercises the sweep cursor
  // advancing through years without ever scanning behind itself.
  CalendarQueue calendar;
  BinaryHeapEventQueue heap;
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> jitter(0.0, 2.0);
  std::uint64_t sequence = 0;
  for (int i = 0; i < 50; ++i) {
    const Event seedling = make_event(jitter(rng), sequence++);
    calendar.push(seedling);
    heap.push(seedling);
  }
  std::int64_t budget = 20000;
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const Event a = calendar.pop();
    const Event b = heap.pop();
    expect_same_event(a, b);
    if (--budget > 0) {
      const int children = static_cast<int>(rng() % 3);
      for (int c = 0; c < children; ++c) {
        const Event next = make_event(a.time + jitter(rng), sequence++);
        calendar.push(next);
        heap.push(next);
      }
    }
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, GrowsAndShrinksWhileStayingCorrect) {
  // Size swings force both directions of the resize logic.
  CalendarQueue calendar;
  BinaryHeapEventQueue heap;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> uniform(0.0, 10.0);
  std::uint64_t sequence = 0;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 3000; ++i) {
      const Event event = make_event(uniform(rng) + wave * 10.0, sequence++);
      calendar.push(event);
      heap.push(event);
    }
    for (int i = 0; i < 2900; ++i) {
      ASSERT_FALSE(calendar.empty());
      expect_same_event(calendar.pop(), heap.pop());
    }
  }
  while (!heap.empty()) expect_same_event(calendar.pop(), heap.pop());
  EXPECT_GT(calendar.resizes(), 0);
  EXPECT_GE(calendar.bucket_count(), 16u);
  EXPECT_GT(calendar.bucket_width(), 0.0);
}

TEST(CalendarQueue, DeterministicAcrossIdenticalRuns) {
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<Event> stream;
  for (std::uint64_t s = 0; s < 2000; ++s)
    stream.push_back(make_event(uniform(rng), s));

  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  for (int run = 0; run < 2; ++run) {
    CalendarQueue queue;
    for (const Event& event : stream) queue.push(event);
    auto& out = run == 0 ? first : second;
    while (!queue.empty()) out.push_back(queue.pop().sequence);
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace anyblock::sim
