// Pending-event set of the discrete-event simulator.
//
// CalendarQueue is Brown's bucketed calendar queue (R. Brown, CACM 1988):
// events hash by time into a ring of width-w buckets, and a sweep cursor
// pops the current "day" bucket by bucket.  For the near-uniform
// event-time distributions the factorization DAGs produce, insert and pop
// are O(1) amortized — the difference between simulating millions and
// billions of events.
//
// Pops come out in strictly increasing (time, sequence) order.  Determinism
// is a hard requirement (the equivalence tests compare makespans
// bit-for-bit), so each bucket stays sorted by EventLater and cross-bucket
// candidates resolve with the same comparator; bucket count and width only
// affect speed, never order.  tests/sim/calendar_queue_test.cpp holds the
// pop sequence to a std::priority_queue oracle kept in tests/sim/oracle/.
#pragma once

#include <cstdint>
#include <vector>

namespace anyblock::sim {

/// One pending simulator event.  `a` holds a task or instance ordinal and
/// must be 64-bit: implicit workloads pass ordinals past 2^31 (LU with
/// t >= ~1700 has more than INT32_MAX tasks).  Fields are ordered widest
/// first so the event packs into 48 bytes (the calendar moves them by
/// value on every insert).
struct Event {
  double time = 0.0;
  std::int64_t a = 0;         ///< task ordinal (finish) or instance ordinal
  std::uint64_t sequence = 0; ///< deterministic FIFO tie-break
  std::int32_t b = 0;         ///< group index (arrival), task slot (finish)
  std::int32_t c = 0;         ///< chunk index (pipelined-chain arrivals)
  std::int32_t src = -1;      ///< sending node (arrival/retransmit)
  std::int32_t attempt = 0;   ///< transmission attempt (retransmit)
  enum class Kind : std::uint8_t { kTaskFinish, kArrival, kRetransmit } kind =
      Kind::kTaskFinish;
  bool duplicate = false;     ///< injected duplicate copy (arrival)
};
static_assert(sizeof(Event) == 48, "Event grew past 48 bytes");

/// Strict weak order "x fires after y": earlier time wins, then the lower
/// push sequence.  The calendar's in-bucket sort uses this functor.
struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    return x.sequence > y.sequence;
  }
};

/// Bucketed calendar queue.  Buckets are vectors sorted descending by
/// (time, sequence) so back() is each bucket's earliest event; vectors are
/// recycled across years, so steady-state operation allocates nothing.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(const Event& event);
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Removes and returns the (time, sequence)-minimal event.  Must not be
  /// called on an empty queue.
  Event pop();

  /// Introspection for tests and the BENCH harness.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] double bucket_width() const { return width_; }
  [[nodiscard]] std::int64_t resizes() const { return resizes_; }

 private:
  /// Virtual bucket index of a timestamp: floor(time / width).  Monotone in
  /// time, so sweeping virtual buckets in order visits events in time order
  /// up to in-bucket ties (handled by the sorted buckets).
  [[nodiscard]] std::uint64_t virtual_bucket(double time) const;

  void insert_sorted(std::vector<Event>& bucket, const Event& event);
  /// Rebuilds with `buckets` buckets and a width estimated from a sample of
  /// the queued events.  Order-preserving by construction.
  void rebuild(std::size_t buckets);
  Event pop_direct();

  std::vector<std::vector<Event>> buckets_;
  std::size_t mask_ = 0;        ///< buckets_.size() - 1 (size is a power of 2)
  double width_ = 1.0;          ///< seconds per bucket
  std::size_t size_ = 0;
  std::uint64_t cursor_ = 0;    ///< virtual bucket the sweep is standing on
  std::int64_t resizes_ = 0;
  std::vector<Event> spill_;    ///< scratch vector reused by rebuild()
};

}  // namespace anyblock::sim
