// Test oracle for sim::CalendarQueue: the seed engine's global binary heap.
//
// std::priority_queue over EventLater pops in the same strictly increasing
// (time, sequence) order the calendar queue must reproduce; the property
// tests in tests/sim/calendar_queue_test.cpp compare the two event for
// event.  The simulator itself runs only on the calendar queue.
#pragma once

#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace anyblock::sim {

/// The seed engine's global heap, wrapped in the pop()-returning interface
/// shared with CalendarQueue.
class BinaryHeapEventQueue {
 public:
  void push(const Event& event) { heap_.push(event); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  Event pop() {
    Event event = heap_.top();
    heap_.pop();
    return event;
  }

 private:
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
};

}  // namespace anyblock::sim
