/// \file server.cpp
/// Event-loop acceptor + worker-pool dispatch with clean shutdown.

#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace greenfpga::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// SO_SNDTIMEO/SO_RCVTIMEO: bound any blocking IO on this socket.  The
/// event loop never blocks on sockets, but the timeouts are cheap
/// defense in depth -- and they make a descriptor handed to blocking
/// code (tests, future handlers) safe by construction.
void set_socket_timeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) {
    return;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

int default_worker_count() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hardware, 2u, 16u));
}

}  // namespace

Server::Server(Router router, ServerOptions options)
    : router_(std::move(router)), options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("Server::start: already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_ = false;
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int on = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_ = false;
    throw std::runtime_error("invalid bind address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_ = false;
    throw std::runtime_error("cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  set_nonblocking(listen_fd_);

  // Registered before the loop thread exists, so no synchronization with
  // dispatch is needed.
  loop_.add(listen_fd_, EventLoop::kRead, [this](std::uint32_t) {
    on_listener_ready();
  });

  const int tick_source = std::min(options_.io_timeout_ms > 0 ? options_.io_timeout_ms
                                                              : options_.idle_timeout_ms,
                                   options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms
                                                                : options_.io_timeout_ms);
  const int tick_ms = std::clamp(tick_source > 0 ? tick_source / 4 : 250, 10, 250);
  loop_thread_ = std::thread([this, tick_ms] {
    loop_.run([this] { sweep_timeouts(); }, std::chrono::milliseconds(tick_ms));
  });

  const int worker_count =
      options_.workers > 0 ? options_.workers : default_worker_count();
  workers_.reserve(static_cast<std::size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void Server::on_listener_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // EAGAIN: drained, or the listener is gone
    }
    set_nonblocking(fd);
    set_socket_timeouts(fd, options_.io_timeout_ms);
    const int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      shed_connection(fd);
      continue;
    }
    auto connection = std::make_unique<Connection>(options_.limits);
    connection->id = next_connection_id_++;
    connection->fd = fd;
    connection->last_activity = std::chrono::steady_clock::now();
    Connection* raw = connection.get();
    connections_.emplace(connection->id, std::move(connection));
    loop_.add(fd, EventLoop::kRead, [this, raw](std::uint32_t ready) {
      on_connection_ready(*raw, ready);
    });
  }
}

void Server::shed_connection(int fd) {
  // Overload: answer fast and shed, never queue unboundedly -- and never
  // block.  One non-blocking send (the 503 fits any fresh socket buffer);
  // a peer that cannot take even that just gets the close.  No lock is
  // held and no shared thread waits, so a stuck or never-reading peer
  // costs exactly this fd, not the acceptor (the PR-8 head-of-line bug).
  requests_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response = error_response(503, "connection limit reached");
  response.set_header("Connection", "close");
  const std::string bytes = serialize_response(response);
  [[maybe_unused]] const ssize_t n =
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
}

void Server::on_connection_ready(Connection& connection, std::uint32_t ready) {
  if ((ready & EventLoop::kError) != 0) {
    destroy_connection(connection);
    return;
  }
  if ((ready & EventLoop::kWrite) != 0) {
    if (!flush_outbox(connection)) {
      return;  // connection destroyed
    }
  }
  if ((ready & EventLoop::kRead) != 0) {
    char chunk[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(connection.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        connection.inbox.append(chunk, static_cast<std::size_t>(n));
        connection.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (n == 0) {
        connection.peer_eof = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      destroy_connection(connection);  // reset mid-read
      return;
    }
    advance(connection);
  }
}

void Server::advance(Connection& connection) {
  if (connection.processing || connection.writing()) {
    return;  // a request is in flight; reads stay paused (backpressure)
  }
  HttpRequest request;
  bool got = false;
  try {
    got = connection.framer.next(connection.inbox, request);
  } catch (const HttpError& error) {
    // Transport-level failure (malformed framing, over-limit input):
    // answer with its status and close -- the byte stream can no longer
    // be trusted for framing.
    HttpResponse response = error_response(error.status(), error.what());
    queue_response(connection, response, /*keep_alive=*/false);
    flush_outbox(connection);
    return;
  }
  if (got) {
    connection.processing = true;
    loop_.set_interest(connection.fd, 0);
    dispatch(connection, std::move(request));
    return;
  }
  if (connection.peer_eof) {
    // No complete request left and none can arrive: the peer closed an
    // idle keep-alive connection (or truncated a request mid-flight --
    // nothing can be answered either way).
    destroy_connection(connection);
    return;
  }
  loop_.set_interest(connection.fd, EventLoop::kRead);
}

void Server::queue_response(Connection& connection, const HttpResponse& response,
                            bool keep_alive) {
  HttpResponse finished = response;
  finished.set_header("Connection", keep_alive ? "keep-alive" : "close");
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Only called with nothing pending (advance and the timeout sweep skip
  // connections that are writing or processing).
  connection.out_head = response_head(finished);
  connection.out_body = std::move(finished.body);
  connection.close_after_write = !keep_alive;
  connection.last_activity = std::chrono::steady_clock::now();
}

bool Server::flush_outbox(Connection& connection) {
  const std::string& head = connection.out_head;
  const std::string& body = connection.out_body;
  while (connection.sent < head.size() + body.size()) {
    // The unsent tail of the head, then of the body, in one call.
    iovec parts[2];
    msghdr message{};
    message.msg_iov = parts;
    if (connection.sent < head.size()) {
      parts[message.msg_iovlen++] = {const_cast<char*>(head.data()) + connection.sent,
                                     head.size() - connection.sent};
    }
    const std::size_t body_sent =
        connection.sent > head.size() ? connection.sent - head.size() : 0;
    if (body_sent < body.size()) {
      parts[message.msg_iovlen++] = {const_cast<char*>(body.data()) + body_sent,
                                     body.size() - body_sent};
    }
    const ssize_t n = ::sendmsg(connection.fd, &message, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      connection.sent += static_cast<std::size_t>(n);
      connection.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full (slow or never-reading peer): let the loop
      // call back when writable; the timeout sweep bounds the stall.
      loop_.set_interest(connection.fd, EventLoop::kWrite);
      return true;
    }
    destroy_connection(connection);  // peer went away mid-write
    return false;
  }
  // Release, not clear: a multi-MB body should not stay resident on an
  // idle keep-alive connection.
  connection.out_head = std::string();
  connection.out_body = std::string();
  connection.sent = 0;
  if (connection.close_after_write) {
    destroy_connection(connection);
    return false;
  }
  // Response delivered: serve the next pipelined request if one is
  // already buffered, otherwise resume reading.
  advance(connection);
  return true;
}

void Server::complete(std::uint64_t connection_id, std::string head, std::string body,
                      bool keep_alive) {
  const auto it = connections_.find(connection_id);
  if (it == connections_.end()) {
    return;  // connection timed out or reset while the handler ran
  }
  Connection& connection = *it->second;
  connection.processing = false;
  // Nothing else is pending while a request is processing (reads and the
  // timeout sweep both wait for it), so the worker's buffers move in.
  connection.out_head = std::move(head);
  connection.out_body = std::move(body);
  connection.close_after_write = !keep_alive;
  connection.last_activity = std::chrono::steady_clock::now();
  flush_outbox(connection);
}

void Server::destroy_connection(Connection& connection) {
  loop_.remove(connection.fd);
  ::close(connection.fd);
  connection.fd = -1;
  connections_.erase(connection.id);  // invalidates `connection`
}

void Server::sweep_timeouts() {
  const auto now = std::chrono::steady_clock::now();
  const auto io_limit = std::chrono::milliseconds(options_.io_timeout_ms);
  const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  // Collect first: destroying mutates the map.
  std::vector<Connection*> stalled;
  std::vector<Connection*> half_received;
  std::vector<Connection*> idle;
  for (const auto& [id, connection] : connections_) {
    if (connection->processing) {
      continue;  // the handler is computing; no socket stall involved
    }
    const auto quiet = now - connection->last_activity;
    if (connection->writing()) {
      if (options_.io_timeout_ms > 0 && quiet > io_limit) {
        stalled.push_back(connection.get());
      }
    } else if (connection->framer.mid_request(connection->inbox)) {
      if (options_.io_timeout_ms > 0 && quiet > io_limit) {
        half_received.push_back(connection.get());
      }
    } else if (options_.idle_timeout_ms > 0 && quiet > idle_limit) {
      idle.push_back(connection.get());
    }
  }
  for (Connection* connection : stalled) {
    destroy_connection(*connection);
  }
  for (Connection* connection : half_received) {
    // The peer started a request and went quiet: 408, then close.
    HttpResponse response = error_response(408, "request timed out");
    queue_response(*connection, response, /*keep_alive=*/false);
    flush_outbox(*connection);
  }
  for (Connection* connection : idle) {
    destroy_connection(*connection);
  }
}

void Server::dispatch(Connection& connection, HttpRequest request) {
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.push_back(Job{connection.id, std::move(request)});
  }
  jobs_ready_.notify_one();
}

void Server::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_ready_.wait(lock, [this] { return workers_stopping_ || !jobs_.empty(); });
      if (workers_stopping_) {
        return;  // shutdown drops queued work; the loop closes the sockets
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    // Last-resort exception mapping (router.hpp documents that handler
    // exceptions propagate here): a handler registered without the
    // handlers.cpp error wrapper, or a failure while building the
    // 404/405 response, must cost one 500, never the daemon.
    HttpResponse response;
    try {
      response = router_.route(job.request);
    } catch (const std::exception& error) {
      response = error_response(500, error.what());
    } catch (...) {
      response = error_response(500, "unknown handler failure");
    }
    const bool keep =
        job.request.keep_alive() && running_.load(std::memory_order_relaxed);
    response.set_header("Connection", keep ? "keep-alive" : "close");
    requests_.fetch_add(1, std::memory_order_relaxed);
    // Head and body travel to the loop separately: copying a multi-MB
    // body behind its head would cost more than writing the head.
    std::string head = response_head(response);
    loop_.post([this, id = job.connection_id, head = std::move(head),
                body = std::move(response.body), keep]() mutable {
      complete(id, std::move(head), std::move(body), keep);
    });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Workers first: in-flight handlers finish and post their responses
  // while the loop is still alive to write them.
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    workers_stopping_ = true;
  }
  jobs_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  loop_.stop();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // The loop is gone: tear sockets down without synchronization.
  for (const auto& [id, connection] : connections_) {
    if (connection->fd >= 0) {
      ::close(connection->fd);
    }
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Taking the lock orders this notify after any in-flight wait()'s
    // predicate check, so the wakeup cannot be lost.
    const std::lock_guard<std::mutex> lock(stopped_mutex_);
  }
  stopped_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stopped_mutex_);
  stopped_.wait(lock, [this] { return !running_.load(std::memory_order_relaxed); });
}

}  // namespace greenfpga::serve
