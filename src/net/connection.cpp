#include "net/connection.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/frame.hpp"

namespace anyblock::net {

Connection::Connection(int fd, std::size_t max_queued_bytes)
    : fd_(fd), max_queued_bytes_(max_queued_bytes) {}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

void Connection::enqueue(std::string frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock,
                 [&] { return failed_ || queued_bytes_ < max_queued_bytes_; });
  if (failed_)
    throw std::runtime_error("net: send on failed connection: " +
                             fail_reason_);
  queued_bytes_ += frame.size();
  write_queue_.push_back(std::move(frame));
}

bool Connection::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!write_queue_.empty()) {
    const std::string& front = write_queue_.front();
    const ssize_t written = write(fd_, front.data() + front_offset_,
                                  front.size() - front_offset_);
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      failed_ = true;
      fail_reason_ = std::strerror(errno);
      write_queue_.clear();
      queued_bytes_ = 0;
      space_cv_.notify_all();
      return false;
    }
    front_offset_ += static_cast<std::size_t>(written);
    queued_bytes_ -= static_cast<std::size_t>(written);
    if (front_offset_ == front.size()) {
      write_queue_.pop_front();
      front_offset_ = 0;
    }
  }
  space_cv_.notify_all();
  return false;
}

bool Connection::read_frames(
    const std::function<void(std::string_view)>& on_frame) {
  char chunk[64 * 1024];
  // A peer's last frames and its EOF often arrive in one readable event;
  // the frames already read are delivered before the EOF is reported, or
  // an orderly exit right after a send (process 0's gather result) would
  // lose that send.
  bool open = true;
  while (true) {
    const ssize_t got = read(fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      open = false;
      break;
    }
    if (got == 0) {  // EOF
      open = false;
      break;
    }
    read_buffer_.append(chunk, static_cast<std::size_t>(got));
  }
  std::size_t consumed = 0;
  while (read_buffer_.size() - consumed >= sizeof(std::uint32_t)) {
    std::uint32_t length = 0;
    std::memcpy(&length, read_buffer_.data() + consumed, sizeof length);
    if (length > kMaxFrameBytes)
      throw std::runtime_error("net: oversized frame (" +
                               std::to_string(length) + " bytes)");
    if (read_buffer_.size() - consumed < sizeof length + length) break;
    on_frame(std::string_view(read_buffer_.data() + consumed + sizeof length,
                              length));
    consumed += sizeof length + length;
  }
  if (consumed > 0) read_buffer_.erase(0, consumed);
  return open;
}

bool Connection::wants_write() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !write_queue_.empty();
}

bool Connection::drained() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_ || write_queue_.empty();
}

void Connection::fail(const std::string& reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failed_) return;
  failed_ = true;
  fail_reason_ = reason;
  write_queue_.clear();
  queued_bytes_ = 0;
  space_cv_.notify_all();
}

bool Connection::failed() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

}  // namespace anyblock::net
