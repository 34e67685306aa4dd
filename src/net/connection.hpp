// One connected peer socket: frame reassembly on the read side, a bounded
// write queue with backpressure on the write side (the counterpart of
// dist-clang's connection_impl).
//
// Threading: enqueue() is called by any rank thread and blocks while the
// queue holds more than `max_queued_bytes` — that blocking IS the
// transport's backpressure, the only place a send may stall.  flush(),
// read_frames() and wants_write() run on the event-loop thread only.  The
// loop thread never blocks: it drains reads unconditionally, which is what
// makes the mutual-backpressure deadlock (two processes both stuck
// sending) impossible.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace anyblock::net {

class Connection {
 public:
  /// Takes ownership of `fd` (must already be non-blocking).
  Connection(int fd, std::size_t max_queued_bytes);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Queues one encoded frame for the loop thread to write.  Blocks while
  /// the queue is over its byte budget; throws std::runtime_error if the
  /// connection failed (peer gone) — a send into a dead mesh must surface,
  /// not hang.
  void enqueue(std::string frame);

  /// Writes queued bytes until EAGAIN or empty.  Returns true while bytes
  /// remain queued (caller keeps EPOLLOUT armed).
  bool flush();

  /// Reads and reassembles frames, invoking `on_frame` with each complete
  /// frame body (length prefix stripped).  Returns false on EOF or error,
  /// after delivering every complete frame read before it.  Throws
  /// std::runtime_error on a malformed stream.
  bool read_frames(const std::function<void(std::string_view)>& on_frame);

  [[nodiscard]] bool wants_write();

  /// True once every queued byte reached the kernel (or the connection
  /// failed).  The transport's shutdown drain polls this so a process never
  /// exits with a peer's frame still sitting in user space.
  [[nodiscard]] bool drained();

  /// Marks the connection broken and unblocks every waiting sender.
  void fail(const std::string& reason);
  [[nodiscard]] bool failed();

 private:
  int fd_;
  std::size_t max_queued_bytes_;

  std::mutex mutex_;
  std::condition_variable space_cv_;
  std::deque<std::string> write_queue_;
  std::size_t queued_bytes_ = 0;
  std::size_t front_offset_ = 0;  ///< bytes of the front frame already written
  bool failed_ = false;
  std::string fail_reason_;

  std::string read_buffer_;  ///< loop thread only
};

}  // namespace anyblock::net
