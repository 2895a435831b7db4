#ifndef GREENFPGA_SERVE_SERVER_HPP
#define GREENFPGA_SERVE_SERVER_HPP

/// \file server.hpp
/// The event-loop HTTP/1.1 daemon behind `greenfpga serve`.
///
/// One event-loop thread owns every socket (listener and connections,
/// all non-blocking) and does nothing but framing and byte shuffling;
/// fully-framed requests are handed to a fixed pool of worker threads
/// that run the router (and, behind it, the evaluation engine), posting
/// each response's head and body back to the loop for writing.  No socket
/// operation ever blocks a shared thread, so one slow or never-reading
/// peer cannot stall accept, other connections, or overload shedding --
/// the head-of-line failure the old thread-per-connection acceptor had
/// when its 503 path wrote to a stuck peer while holding the connection
/// lock.
///
/// Keep-alive connections are served request-at-a-time with pipelining:
/// buffered follow-up requests dispatch as soon as the previous response
/// is written; reads pause (backpressure) while a request is in the
/// workers.  A `max_connections` cap sheds overload with a best-effort
/// non-blocking 503.  Stalled writes and half-received requests are
/// closed after `io_timeout_ms` (408 when a request is partially
/// framed); idle keep-alive connections close after `idle_timeout_ms`.
/// `stop()` is safe from any thread and joins the loop and every worker,
/// so tests can start/stop servers in-process.
///
/// The server owns no evaluation state -- it drives a `Router` built by
/// `serve::make_router` over a `ServeContext` (engine + result cache);
/// see serve/handlers.hpp.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/event_loop.hpp"
#include "serve/http.hpp"
#include "serve/router.hpp"

namespace greenfpga::serve {

struct ServerOptions {
  /// Bind address.  The default is loopback-only: the daemon speaks
  /// plaintext HTTP, so exposing it beyond the host is an explicit
  /// operator decision ("0.0.0.0").
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via `port()`).
  int port = 0;
  /// Concurrent-connection cap; further accepts answer 503 and close.
  int max_connections = 64;
  /// Handler worker threads; 0 picks a hardware-sized default.  Workers
  /// only compute (parse spec, run engine, serialize); they never touch
  /// sockets, so this bounds CPU concurrency, not client concurrency.
  int workers = 0;
  /// Close a connection whose write is stalled, or whose request is
  /// half-received (408), for longer than this.  Also applied to the
  /// socket as SO_SNDTIMEO/SO_RCVTIMEO, bounding any direct blocking IO.
  int io_timeout_ms = 5000;
  /// Close keep-alive connections idle (no request in flight) this long.
  int idle_timeout_ms = 60000;
  HttpLimits limits;
};

class Server {
 public:
  Server(Router router, ServerOptions options = {});
  ~Server();  ///< calls stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the event loop and worker pool.  Throws
  /// std::runtime_error on bind failure (e.g. port in use).
  void start();

  /// The bound port (the real one when options.port was 0).  Valid after
  /// start().
  [[nodiscard]] int port() const { return port_; }

  /// Stop accepting, unblock and join the loop and every worker, close
  /// all sockets.  Idempotent; called by the destructor.
  void stop();

  /// Block until stop() is called from elsewhere (the CLI foreground
  /// path: the process serves until killed).
  void wait();

  /// Requests answered so far (all routes, including error responses and
  /// overload 503s).
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state, owned by the loop thread.  `id` outlives fd
  /// reuse: worker completions address connections by id, so a response
  /// for a connection that timed out meanwhile is dropped, never written
  /// to a recycled fd.
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    RequestFramer framer;
    std::string inbox;    ///< received, not yet framed
    /// The response pending write: its head and body, sent side by side
    /// (one `sendmsg` of both), never concatenated.
    std::string out_head;
    std::string out_body;
    std::size_t sent = 0;  ///< bytes of head, then body, already sent
    [[nodiscard]] bool writing() const { return !out_head.empty() || !out_body.empty(); }
    bool processing = false;        ///< a request is in the worker pool
    bool close_after_write = false;
    bool peer_eof = false;          ///< peer half-closed; close once drained
    std::chrono::steady_clock::time_point last_activity;

    explicit Connection(HttpLimits limits) : framer(limits) {}
  };

  struct Job {
    std::uint64_t connection_id = 0;
    HttpRequest request;
  };

  // -- loop thread only -------------------------------------------------
  void on_listener_ready();
  void shed_connection(int fd);  ///< best-effort non-blocking 503 + close
  void on_connection_ready(Connection& connection, std::uint32_t ready);
  void advance(Connection& connection);   ///< frame / dispatch / rearm
  void queue_response(Connection& connection, const HttpResponse& response,
                      bool keep_alive);
  bool flush_outbox(Connection& connection);  ///< false: connection destroyed
  void complete(std::uint64_t connection_id, std::string head, std::string body,
                bool keep_alive);
  void destroy_connection(Connection& connection);
  void sweep_timeouts();

  // -- worker pool ------------------------------------------------------
  void worker_main();
  void dispatch(Connection& connection, HttpRequest request);

  Router router_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};

  EventLoop loop_;
  std::thread loop_thread_;
  std::uint64_t next_connection_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;

  std::vector<std::thread> workers_;
  std::mutex jobs_mutex_;
  std::condition_variable jobs_ready_;
  std::deque<Job> jobs_;
  bool workers_stopping_ = false;

  std::mutex stopped_mutex_;
  std::condition_variable stopped_;
};

}  // namespace greenfpga::serve

#endif  // GREENFPGA_SERVE_SERVER_HPP
