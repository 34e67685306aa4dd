#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "net/rendezvous.hpp"

namespace anyblock::net {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), "net: " + what);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  const int one = 1;
  // Small envelopes and gather frames must not sit in Nagle's buffer.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1)
    throw std::runtime_error("net: bad host address: " + host);
  return address;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("handshake write");
    }
    done += static_cast<std::size_t>(n);
  }
}

void read_exact(int fd, char* out, std::size_t count) {
  std::size_t done = 0;
  while (done < count) {
    const ssize_t n = read(fd, out + done, count - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("handshake read");
    }
    if (n == 0)
      throw std::runtime_error("net: peer closed during handshake");
    done += static_cast<std::size_t>(n);
  }
}

/// Reads one blocking frame and returns the hello's process index.
int read_hello(int fd) {
  std::uint32_t length = 0;
  read_exact(fd, reinterpret_cast<char*>(&length), sizeof length);
  if (length == 0 || length > kMaxFrameBytes)
    throw std::runtime_error("net: malformed hello frame");
  std::string body(length, '\0');
  read_exact(fd, body.data(), length);
  const Frame frame = decode_frame(body);
  if (frame.type != FrameType::kHello)
    throw std::runtime_error("net: expected hello, got frame type " +
                             std::to_string(static_cast<int>(frame.type)));
  return frame.process;
}

int dial(const Endpoint& endpoint, Clock::time_point deadline) {
  const sockaddr_in address = make_address(endpoint.host, endpoint.port);
  while (true) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) == 0)
      return fd;
    const int saved = errno;
    close(fd);
    // The peer published its endpoint after listen(), so a refusal is a
    // transient (stale file from a previous run, slow loopback) — retry.
    if (saved != ECONNREFUSED && saved != EINTR && saved != ETIMEDOUT) {
      errno = saved;
      throw_errno("connect");
    }
    if (Clock::now() >= deadline)
      throw std::runtime_error("net: connect timed out dialing " +
                               endpoint.host + ":" +
                               std::to_string(endpoint.port));
    struct timespec nap {0, 5 * 1000 * 1000};
    nanosleep(&nap, nullptr);
  }
}

int accept_one(int listen_fd, Clock::time_point deadline) {
  while (true) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0)
      throw std::runtime_error("net: timed out waiting for peers to connect");
    pollfd waiter{listen_fd, POLLIN, 0};
    const int ready =
        poll(&waiter, 1, static_cast<int>(std::min<long long>(
                             remaining.count(), 1000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(listen)");
    }
    if (ready == 0) continue;
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept");
    }
    return fd;
  }
}

}  // namespace

std::vector<int> ranks_of_process(int world_size, int process_count,
                                  int process) {
  const int base = world_size / process_count;
  const int extra = world_size % process_count;
  const int begin = process * base + std::min(process, extra);
  const int count = base + (process < extra ? 1 : 0);
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(count));
  for (int rank = begin; rank < begin + count; ++rank) ranks.push_back(rank);
  return ranks;
}

int SocketTransport::rank_to_process(int rank) const {
  const int base = config_.world_size / config_.process_count;
  const int extra = config_.world_size % config_.process_count;
  const int split = extra * (base + 1);
  if (rank < split) return rank / (base + 1);
  return extra + (rank - split) / base;
}

SocketTransport::SocketTransport(const SocketTransportConfig& config)
    : config_(config) {
  if (config_.world_size < 1)
    throw std::invalid_argument("net: world_size must be positive");
  if (config_.process_count < 1 ||
      config_.process_count > config_.world_size)
    throw std::invalid_argument(
        "net: process_count must be in [1, world_size] — every process "
        "needs at least one rank");
  if (config_.process_index < 0 ||
      config_.process_index >= config_.process_count)
    throw std::invalid_argument("net: process_index out of range");

  local_ranks_ = ranks_of_process(config_.world_size, config_.process_count,
                                  config_.process_index);
  local_.assign(static_cast<std::size_t>(config_.world_size), 0);
  for (const int rank : local_ranks_)
    local_[static_cast<std::size_t>(rank)] = 1;
  peers_.resize(static_cast<std::size_t>(config_.process_count));
  blob_queues_.resize(static_cast<std::size_t>(config_.process_count));
  lost_.resize(static_cast<std::size_t>(config_.process_count));

  if (config_.process_count == 1) return;  // mesh of one: no sockets

  if (config_.rendezvous_dir.empty())
    throw std::invalid_argument(
        "net: socket transport needs a rendezvous directory");

  const auto deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(config_.connect_timeout_seconds));

  const int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) throw_errno("socket(listen)");
  try {
    const int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address = make_address(config_.host, 0);
    if (bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0)
      throw_errno("bind");
    if (listen(listen_fd, config_.process_count) != 0) throw_errno("listen");
    socklen_t address_size = sizeof address;
    if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address),
                    &address_size) != 0)
      throw_errno("getsockname");

    publish_endpoint(config_.rendezvous_dir, config_.process_index,
                     {config_.host, ntohs(address.sin_port)});
    const std::vector<Endpoint> endpoints =
        await_endpoints(config_.rendezvous_dir, config_.process_count,
                        config_.connect_timeout_seconds);

    // Dial every lower-indexed process and introduce ourselves...
    for (int p = 0; p < config_.process_index; ++p) {
      const int fd = dial(endpoints[static_cast<std::size_t>(p)], deadline);
      write_all(fd, encode_hello(config_.process_index));
      adopt_connection(p, fd);
    }
    // ...and accept one connection from every higher-indexed one.
    for (int n = config_.process_index + 1; n < config_.process_count; ++n) {
      const int fd = accept_one(listen_fd, deadline);
      const int who = read_hello(fd);
      if (who <= config_.process_index || who >= config_.process_count) {
        close(fd);
        throw std::runtime_error("net: unexpected hello from process " +
                                 std::to_string(who));
      }
      adopt_connection(who, fd);
    }
  } catch (...) {
    close(listen_fd);
    throw;
  }
  close(listen_fd);

  for (int p = 0; p < config_.process_count; ++p) {
    Peer& peer = peers_[static_cast<std::size_t>(p)];
    if (!peer.connection) continue;
    set_nonblocking(peer.connection->fd());
    loop_.add(peer.connection->fd(), EPOLLIN,
              [this, p](std::uint32_t events) { on_event(p, events); });
  }
  loop_.set_wake_handler([this] { on_wake(); });
  loop_thread_ = std::thread([this] { loop_.run(); });
}

SocketTransport::~SocketTransport() {
  // Drain queued frames first: gather_blobs() returns on process 0 as soon
  // as its kBlobAll broadcast is *queued*, so exiting before the loop
  // thread writes it would make a peer's blocked gather see EOF instead.
  if (loop_thread_.joinable()) {
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      bool pending = false;
      for (Peer& peer : peers_)
        if (peer.connection && !peer.connection->drained()) pending = true;
      if (!pending) break;
      loop_.wake();
      struct timespec nap {0, 1 * 1000 * 1000};
      nanosleep(&nap, nullptr);
    }
  }
  // Unblock any sender stuck on backpressure before stopping the writer.
  for (Peer& peer : peers_)
    if (peer.connection) peer.connection->fail("transport shut down");
  if (loop_thread_.joinable()) {
    loop_.stop();
    loop_thread_.join();
  }
}

void SocketTransport::adopt_connection(int process, int fd) {
  Peer& peer = peers_[static_cast<std::size_t>(process)];
  if (peer.connection) {
    close(fd);
    throw std::runtime_error("net: duplicate connection from process " +
                             std::to_string(process));
  }
  set_nodelay(fd);
  peer.connection =
      std::make_unique<Connection>(fd, config_.max_queued_bytes);
}

void SocketTransport::post(int process, std::string frame) {
  Connection* connection =
      peers_[static_cast<std::size_t>(process)].connection.get();
  if (connection == nullptr)
    throw std::logic_error("net: no connection to process " +
                           std::to_string(process));
  try {
    connection->enqueue(std::move(frame));
  } catch (const std::runtime_error& error) {  // the connection has failed
    throw PeerLostError(process, error.what());
  }
  loop_.wake();
}

void SocketTransport::send(vmpi::WireMessage message) {
  const int dest_process = rank_to_process(message.dest);
  if (dest_process == config_.process_index) {
    deliver(std::move(message));  // defensive; World routes local sends itself
    return;
  }
  post(dest_process, encode_data(message));
}

void SocketTransport::attach(Sink sink) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = std::move(sink);
  while (!pending_.empty()) {
    sink_(std::move(pending_.front()));
    pending_.pop_front();
  }
}

void SocketTransport::detach() {
  // Taking the mutex waits out any in-flight sink call on the loop thread.
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = nullptr;
}

void SocketTransport::deliver(vmpi::WireMessage&& message) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_)
    sink_(std::move(message));
  else
    pending_.push_back(std::move(message));
}

std::vector<std::string> SocketTransport::gather_blobs(
    const std::string& local) {
  if (config_.process_count == 1) return {local};
  if (config_.process_index == 0) {
    std::vector<std::string> all(
        static_cast<std::size_t>(config_.process_count));
    all[0] = local;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (int p = 1; p < config_.process_count; ++p) {
        auto& queue = blob_queues_[static_cast<std::size_t>(p)];
        cv_.wait(lock, [&] { return !queue.empty() || lost_locked(p); });
        if (queue.empty())
          throw PeerLostError(p, "net: gather failed: " +
                                     lost_reason_locked(p));
        all[static_cast<std::size_t>(p)] = std::move(queue.front());
        queue.pop_front();
      }
    }
    const std::string assembled = encode_blob_all(all);
    for (int p = 1; p < config_.process_count; ++p) post(p, assembled);
    return all;
  }
  // Only process 0 takes part in a non-root gather: every other peer may
  // finish its own gather and exit first, and its orderly EOF must not
  // abort this one.  Process 0 queues the result before it closes, and the
  // connection is FIFO, so its loss with no result queued is a real
  // failure.
  post(0, encode_blob(config_.process_index, local));
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !blob_results_.empty() || lost_locked(0); });
  if (blob_results_.empty())
    throw PeerLostError(0, "net: gather failed: " + lost_reason_locked(0));
  std::vector<std::string> result = std::move(blob_results_.front());
  blob_results_.pop_front();
  return result;
}

void SocketTransport::on_event(int process, std::uint32_t events) {
  Peer& peer = peers_[static_cast<std::size_t>(process)];
  if (!peer.connection || peer.connection->failed()) return;
  if (events & EPOLLOUT) {
    if (!peer.connection->flush() && peer.write_armed) {
      peer.write_armed = false;
      loop_.modify(peer.connection->fd(), EPOLLIN);
    }
    if (peer.connection->failed()) {
      peer_lost(process, "write to peer process " + std::to_string(process) +
                             " failed");
      return;
    }
  }
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    bool alive = false;
    try {
      alive = peer.connection->read_frames(
          [&](std::string_view body) { dispatch(decode_frame(body)); });
    } catch (const std::exception& error) {
      peer_lost(process, error.what());
      return;
    }
    if (!alive)
      peer_lost(process, "peer process " + std::to_string(process) +
                             " disconnected");
  }
}

void SocketTransport::on_wake() {
  for (int p = 0; p < config_.process_count; ++p) {
    Peer& peer = peers_[static_cast<std::size_t>(p)];
    if (!peer.connection || peer.connection->failed()) continue;
    if (peer.connection->flush()) {
      if (!peer.write_armed) {
        peer.write_armed = true;
        loop_.modify(peer.connection->fd(), EPOLLIN | EPOLLOUT);
      }
    } else if (peer.connection->failed()) {
      peer_lost(p, "write to peer process " + std::to_string(p) + " failed");
    }
  }
}

void SocketTransport::dispatch(Frame&& frame) {
  switch (frame.type) {
    case FrameType::kData:
      deliver(std::move(frame.message));
      return;
    case FrameType::kBlob: {
      const std::lock_guard<std::mutex> lock(mutex_);
      blob_queues_[static_cast<std::size_t>(frame.process)].push_back(
          std::move(frame.blob));
      break;
    }
    case FrameType::kBlobAll: {
      const std::lock_guard<std::mutex> lock(mutex_);
      blob_results_.push_back(std::move(frame.blobs));
      break;
    }
    case FrameType::kHello:
      throw std::runtime_error("net: unexpected mid-stream hello");
  }
  cv_.notify_all();
}

void SocketTransport::peer_lost(int process, const std::string& reason) {
  Peer& peer = peers_[static_cast<std::size_t>(process)];
  if (peer.connection) {
    loop_.remove(peer.connection->fd());
    peer.connection->fail(reason);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string& lost = lost_[static_cast<std::size_t>(process)];
    if (lost.empty()) lost = reason;
  }
  cv_.notify_all();
}

bool SocketTransport::lost_locked(int process) const {
  return !lost_[static_cast<std::size_t>(process)].empty();
}

const std::string& SocketTransport::lost_reason_locked(int process) const {
  return lost_[static_cast<std::size_t>(process)];
}

PeerLostError::PeerLostError(int process, const std::string& what)
    : std::runtime_error(what), process_(process) {}

}  // namespace anyblock::net
