#ifndef GREENFPGA_SERVE_HTTP_HPP
#define GREENFPGA_SERVE_HTTP_HPP

/// \file http.hpp
/// A small, dependency-free HTTP/1.1 message layer over blocking sockets.
///
/// `greenfpga serve` speaks plain HTTP/1.1 so any client (curl, a
/// dashboard, the bench load driver) can talk to it without a client
/// library.  The subset implemented here is deliberately narrow and
/// strict -- request line + headers + Content-Length body, keep-alive,
/// no chunked transfer coding, no TLS -- because the daemon fronts a
/// deterministic evaluation engine, not the open internet.  Ingestion is
/// bounded (header and body byte caps) so untrusted input fails with a
/// 4xx instead of exhausting the process, mirroring the JSON parser's
/// nesting cap.
///
/// `SocketStream` is the shared framing layer (buffered reads, EINTR
/// retry, SIGPIPE-safe writes) used by the server's connection loop and
/// by `HttpClient`, the keep-alive client used by tests and e2ebench.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenfpga::serve {

/// Transport/parse failure; `status` is the HTTP status the server
/// should answer with before closing (400 malformed, 413 too large,
/// 501 unsupported framing).
class HttpError : public std::runtime_error {
 public:
  HttpError(int status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  [[nodiscard]] int status() const { return status_; }

 private:
  int status_;
};

/// One parsed request.  Header names are lowercased on parse; values keep
/// their bytes (leading/trailing whitespace trimmed).
struct HttpRequest {
  std::string method;
  std::string target;   ///< path only; any "?query" suffix is split off
  std::string query;    ///< bytes after '?', empty if none
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of header `name` (lowercase), or `fallback`.
  [[nodiscard]] std::string header_or(std::string_view name,
                                      std::string fallback = "") const;
  /// HTTP/1.1 defaults to keep-alive unless "Connection: close";
  /// HTTP/1.0 defaults to close unless "Connection: keep-alive".
  [[nodiscard]] bool keep_alive() const;
};

/// One response to serialize.  `Content-Length` and the status reason are
/// filled in by `SocketStream::write_response`.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Set (replacing any existing value of) header `name`.
  void set_header(std::string_view name, std::string value);
  [[nodiscard]] std::string header_or(std::string_view name,
                                      std::string fallback = "") const;
};

/// The standard reason phrase of `status` ("OK", "Not Found", ...).
[[nodiscard]] std::string reason_phrase(int status);

/// Ingestion bounds shared by server and client framing.
struct HttpLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
};

/// The wire head of `response`: status line, headers, Content-Length and
/// the blank line.  The single head writer of the blocking stream, the
/// event-loop server (which sends head and body side by side, never
/// concatenated) and `serialize_response`, so every path emits identical
/// bytes.
[[nodiscard]] std::string response_head(const HttpResponse& response);

/// `response_head(response)` followed by the body: the whole wire bytes.
[[nodiscard]] std::string serialize_response(const HttpResponse& response);

/// Incremental HTTP/1.1 request framing over a caller-owned receive
/// buffer.  `next` consumes at most one complete request per call and
/// never blocks, so it works for both the blocking `SocketStream` (which
/// fills the buffer between calls) and the event-loop server (which
/// appends whatever `recv` returned and retries).  Enforces the
/// `HttpLimits` ingestion bounds; an over-limit declared body is drained
/// (discarded, within a hard bound) before the 413 surfaces, so the
/// rejection can actually be delivered instead of being eaten by an RST.
/// After a throw the framer is poisoned: the byte stream can no longer be
/// trusted for framing and the connection must close after the error
/// response.
class RequestFramer {
 public:
  explicit RequestFramer(HttpLimits limits = {});

  /// Try to extract one complete request from `buffer` (consuming its
  /// bytes).  Returns true with `out` filled, false when more bytes are
  /// needed.  Throws HttpError on malformed or over-limit input.
  [[nodiscard]] bool next(std::string& buffer, HttpRequest& out);

  /// True when bytes of a partially-received request are pending (header
  /// bytes buffered, a body still owed, or an over-limit drain running):
  /// EOF here is a truncation error, not a clean close.
  [[nodiscard]] bool mid_request(const std::string& buffer) const {
    return head_done_ || drain_remaining_ > 0 || !buffer.empty();
  }

 private:
  HttpLimits limits_;
  HttpRequest pending_;            ///< head parsed, awaiting its body
  std::size_t body_needed_ = 0;    ///< body bytes still owed to pending_
  bool head_done_ = false;
  std::size_t drain_remaining_ = 0;  ///< over-limit body bytes to discard
  std::string drain_error_;          ///< the 413 to throw once drained
};

/// Buffered, bounded HTTP framing over one connected socket.  Owns the
/// file descriptor (closed on destruction).  Not thread-safe; one
/// connection is driven by one thread.
class SocketStream {
 public:
  explicit SocketStream(int fd, HttpLimits limits = {});
  ~SocketStream();
  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  /// Read one request.  Returns false on clean end-of-stream before any
  /// request byte (the peer closed an idle keep-alive connection); throws
  /// HttpError on malformed or over-limit input, HttpError(408) when a
  /// socket receive timeout (SO_RCVTIMEO) expires mid-request.
  [[nodiscard]] bool read_request(HttpRequest& out);

  /// Read one response (client side).  Returns false on clean EOF before
  /// any byte.
  [[nodiscard]] bool read_response(HttpResponse& out);

  /// Serialize and send `response` (fills Content-Length; SIGPIPE-safe).
  /// Throws HttpError(500) when the peer is gone mid-write.
  void write_response(const HttpResponse& response);

  /// Send a serialized request (client side).
  void write_request(const HttpRequest& request);

 private:
  /// One recv into the buffer; false on orderly peer EOF.  Throws
  /// HttpError(408) on a receive timeout (EAGAIN/EWOULDBLOCK under
  /// SO_RCVTIMEO) and HttpError(400) on any other receive failure --
  /// a reset peer is not a clean end-of-stream.
  [[nodiscard]] bool fill();
  /// Block until the buffer holds a blank-line-terminated header block;
  /// returns it (consumed from the buffer), or nullopt on clean EOF at
  /// offset 0.
  [[nodiscard]] bool read_header_block(std::string& out);
  void read_body(std::size_t length, std::string& out);
  void send_all(std::string_view bytes);

  int fd_;
  HttpLimits limits_;
  std::string buffer_;  ///< bytes received but not yet consumed
  RequestFramer framer_;  ///< server-side request framing over buffer_
};

/// A minimal keep-alive client for tests and the bench load driver.
/// Connects on construction; one in-flight request at a time.
class HttpClient {
 public:
  /// Connect to host:port (IPv4 dotted quad, e.g. "127.0.0.1").  Throws
  /// std::runtime_error on connection failure.
  HttpClient(const std::string& host, int port, HttpLimits limits = {});

  /// Issue `method target` with `body` and return the response.  The
  /// connection is reused across calls (Connection: keep-alive).  Throws
  /// HttpError / std::runtime_error on transport failure.
  [[nodiscard]] HttpResponse request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      std::vector<std::pair<std::string, std::string>> headers = {});

 private:
  std::string host_;
  SocketStream stream_;
};

}  // namespace greenfpga::serve

#endif  // GREENFPGA_SERVE_HTTP_HPP
