/// \file http.cpp
/// HTTP/1.1 framing: strict parsing, bounded ingestion, SIGPIPE-safe IO.

#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>

namespace greenfpga::serve {

namespace {

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Strict non-negative decimal parse for Content-Length (no sign, no
/// whitespace, no trailing bytes); nullopt on anything else.
std::optional<std::size_t> parse_content_length(std::string_view text) {
  if (text.empty() || text.size() > 18) {
    return std::nullopt;
  }
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

/// Split a CRLF (or, leniently, bare-LF) header block into lines.
std::vector<std::string_view> split_lines(std::string_view block) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < block.size()) {
    std::size_t end = block.find('\n', start);
    if (end == std::string_view::npos) {
      end = block.size();
    }
    std::string_view line = block.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    lines.push_back(line);
    start = end + 1;
  }
  return lines;
}

void parse_headers(const std::vector<std::string_view>& lines,
                   std::vector<std::pair<std::string, std::string>>& out) {
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) {
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      throw HttpError(400, "malformed header line");
    }
    out.emplace_back(to_lower(trim(line.substr(0, colon))),
                     std::string(trim(line.substr(colon + 1))));
  }
}

std::string find_header(const std::vector<std::pair<std::string, std::string>>& headers,
                        std::string_view name, std::string fallback) {
  const std::string lowered = to_lower(name);
  for (const auto& [key, value] : headers) {
    if (key == lowered) {
      return value;
    }
  }
  return fallback;
}

}  // namespace

std::string HttpRequest::header_or(std::string_view name, std::string fallback) const {
  return find_header(headers, name, std::move(fallback));
}

bool HttpRequest::keep_alive() const {
  const std::string connection = to_lower(header_or("connection"));
  if (version == "HTTP/1.0") {
    return connection == "keep-alive";
  }
  return connection != "close";
}

void HttpResponse::set_header(std::string_view name, std::string value) {
  const std::string lowered = to_lower(name);
  for (auto& [key, existing] : headers) {
    if (to_lower(key) == lowered) {
      existing = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::move(value));
}

std::string HttpResponse::header_or(std::string_view name, std::string fallback) const {
  return find_header(headers, name, std::move(fallback));
}

std::string reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Status " + std::to_string(status);
  }
}

RequestFramer::RequestFramer(HttpLimits limits) : limits_(limits) {}

bool RequestFramer::next(std::string& buffer, HttpRequest& out) {
  if (drain_remaining_ > 0) {
    // Over-limit body: discard what the peer is committed to sending,
    // within a hard bound, so the 413 can actually be delivered --
    // rejecting with unread bytes in flight makes the close RST the
    // connection and eat the response.  Past the bound we give up and
    // let the close happen.
    const std::size_t n = std::min(buffer.size(), drain_remaining_);
    buffer.erase(0, n);
    drain_remaining_ -= n;
    if (drain_remaining_ > 0) {
      return false;
    }
    throw HttpError(413, drain_error_);
  }
  if (!head_done_) {
    // Accept CRLFCRLF and (leniently) LFLF as the header terminator.
    const std::size_t crlf = buffer.find("\r\n\r\n");
    const std::size_t lflf = buffer.find("\n\n");
    std::size_t end = std::string::npos;
    std::size_t skip = 0;
    if (crlf != std::string::npos && (lflf == std::string::npos || crlf < lflf)) {
      end = crlf;
      skip = 4;
    } else if (lflf != std::string::npos) {
      end = lflf;
      skip = 2;
    }
    if (end == std::string::npos) {
      if (buffer.size() > limits_.max_header_bytes) {
        throw HttpError(413, "header block exceeds " +
                                 std::to_string(limits_.max_header_bytes) + " bytes");
      }
      return false;
    }
    const std::string block = buffer.substr(0, end);
    buffer.erase(0, end + skip);
    const std::vector<std::string_view> lines = split_lines(block);
    if (lines.empty()) {
      throw HttpError(400, "empty request");
    }
    // Request line: METHOD SP TARGET SP VERSION -- exactly two spaces.  A
    // target with an embedded space is malformed framing, not a path.
    const std::string_view line = lines.front();
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        line.find(' ', sp2 + 1) != std::string_view::npos) {
      throw HttpError(400, "malformed request line");
    }
    pending_ = HttpRequest{};
    pending_.method = std::string(line.substr(0, sp1));
    std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    pending_.version = std::string(line.substr(sp2 + 1));
    if (pending_.version != "HTTP/1.1" && pending_.version != "HTTP/1.0") {
      throw HttpError(400, "unsupported HTTP version '" + pending_.version + "'");
    }
    const std::size_t question = target.find('?');
    if (question != std::string_view::npos) {
      pending_.query = std::string(target.substr(question + 1));
      target = target.substr(0, question);
    }
    pending_.target = std::string(target);
    if (pending_.target.empty() || pending_.target.front() != '/') {
      throw HttpError(400, "request target must be an absolute path");
    }
    parse_headers(lines, pending_.headers);
    if (!pending_.header_or("transfer-encoding").empty()) {
      throw HttpError(501, "chunked transfer coding is not supported; "
                           "send Content-Length");
    }
    body_needed_ = 0;
    const std::string length_text = pending_.header_or("content-length");
    if (!length_text.empty()) {
      const std::optional<std::size_t> length = parse_content_length(length_text);
      if (!length) {
        throw HttpError(400, "malformed Content-Length '" + length_text + "'");
      }
      if (*length > limits_.max_body_bytes) {
        drain_remaining_ = std::min(*length, limits_.max_body_bytes * 8);
        drain_error_ = "body of " + std::to_string(*length) + " bytes exceeds limit " +
                       std::to_string(limits_.max_body_bytes);
        pending_ = HttpRequest{};
        return next(buffer, out);  // start draining what is already buffered
      }
      body_needed_ = *length;
    }
    head_done_ = true;
  }
  if (buffer.size() < body_needed_) {
    return false;
  }
  pending_.body = buffer.substr(0, body_needed_);
  buffer.erase(0, body_needed_);
  out = std::move(pending_);
  pending_ = HttpRequest{};
  body_needed_ = 0;
  head_done_ = false;
  return true;
}

SocketStream::SocketStream(int fd, HttpLimits limits)
    : fd_(fd), limits_(limits), framer_(limits) {}

SocketStream::~SocketStream() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool SocketStream::fill() {
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) {
      return false;  // orderly shutdown by the peer
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expired: the peer is alive but silent.  That is a
      // timeout to report (408), not a clean end-of-stream.
      throw HttpError(408, "receive timed out");
    }
    throw HttpError(400, std::string("recv failed: ") + std::strerror(errno));
  }
}

bool SocketStream::read_header_block(std::string& out) {
  for (;;) {
    // Accept CRLFCRLF and (leniently) LFLF as the header terminator.
    const std::size_t crlf = buffer_.find("\r\n\r\n");
    const std::size_t lflf = buffer_.find("\n\n");
    std::size_t end = std::string::npos;
    std::size_t skip = 0;
    if (crlf != std::string::npos && (lflf == std::string::npos || crlf < lflf)) {
      end = crlf;
      skip = 4;
    } else if (lflf != std::string::npos) {
      end = lflf;
      skip = 2;
    }
    if (end != std::string::npos) {
      out = buffer_.substr(0, end);
      buffer_.erase(0, end + skip);
      return true;
    }
    if (buffer_.size() > limits_.max_header_bytes) {
      throw HttpError(413, "header block exceeds " +
                               std::to_string(limits_.max_header_bytes) + " bytes");
    }
    if (!fill()) {
      if (buffer_.empty()) {
        return false;  // clean EOF between messages
      }
      throw HttpError(400, "connection closed mid-header");
    }
  }
}

void SocketStream::read_body(std::size_t length, std::string& out) {
  if (length > limits_.max_body_bytes) {
    // Drain (and discard) what the peer is committed to sending, within
    // a hard bound, so the 413 can actually be delivered: rejecting with
    // unread bytes in flight makes the close RST the connection and eat
    // the response.  Past the bound we give up and let the close happen.
    std::size_t to_drain = std::min(length, limits_.max_body_bytes * 8);
    while (to_drain > 0) {
      if (buffer_.empty() && !fill()) {
        break;
      }
      const std::size_t n = std::min(buffer_.size(), to_drain);
      buffer_.erase(0, n);
      to_drain -= n;
    }
    throw HttpError(413, "body of " + std::to_string(length) + " bytes exceeds limit " +
                             std::to_string(limits_.max_body_bytes));
  }
  while (buffer_.size() < length) {
    if (!fill()) {
      throw HttpError(400, "connection closed mid-body");
    }
  }
  out = buffer_.substr(0, length);
  buffer_.erase(0, length);
}

bool SocketStream::read_request(HttpRequest& out) {
  for (;;) {
    if (framer_.next(buffer_, out)) {
      return true;
    }
    if (!fill()) {
      if (!framer_.mid_request(buffer_)) {
        return false;  // clean EOF between messages
      }
      throw HttpError(400, "connection closed mid-request");
    }
  }
}

bool SocketStream::read_response(HttpResponse& out) {
  std::string block;
  if (!read_header_block(block)) {
    return false;
  }
  const std::vector<std::string_view> lines = split_lines(block);
  if (lines.empty()) {
    throw HttpError(400, "empty response");
  }
  // Status line: VERSION SP STATUS SP REASON.
  const std::string_view line = lines.front();
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || line.size() < sp1 + 4) {
    throw HttpError(400, "malformed status line");
  }
  out = HttpResponse{};
  const std::optional<std::size_t> status = parse_content_length(line.substr(sp1 + 1, 3));
  if (!status) {
    throw HttpError(400, "malformed status code");
  }
  out.status = static_cast<int>(*status);
  parse_headers(lines, out.headers);
  const std::string length_text = find_header(out.headers, "content-length", "");
  if (length_text.empty()) {
    throw HttpError(400, "response without Content-Length");
  }
  const std::optional<std::size_t> length = parse_content_length(length_text);
  if (!length) {
    throw HttpError(400, "malformed Content-Length '" + length_text + "'");
  }
  read_body(*length, out.body);
  return true;
}

void SocketStream::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw HttpError(500, std::string("send failed: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

namespace {

/// The head of `response`, in a string with room for `extra` more bytes.
std::string head_with_room(const HttpResponse& response, std::size_t extra) {
  const std::string status = std::to_string(response.status);
  const std::string reason = reason_phrase(response.status);
  const std::string length = std::to_string(response.body.size());
  std::size_t size = 9 + status.size() + 1 + reason.size() + 2 + 16 + length.size() + 4;
  for (const auto& [name, value] : response.headers) {
    size += name.size() + 2 + value.size() + 2;
  }
  std::string out;
  out.reserve(size + extra);
  out.append("HTTP/1.1 ").append(status).append(" ").append(reason).append("\r\n");
  for (const auto& [name, value] : response.headers) {
    out.append(name).append(": ").append(value).append("\r\n");
  }
  out.append("Content-Length: ").append(length).append("\r\n\r\n");
  return out;
}

}  // namespace

std::string response_head(const HttpResponse& response) { return head_with_room(response, 0); }

std::string serialize_response(const HttpResponse& response) {
  std::string out = head_with_room(response, response.body.size());
  out.append(response.body);
  return out;
}

void SocketStream::write_response(const HttpResponse& response) {
  send_all(serialize_response(response));
}

void SocketStream::write_request(const HttpRequest& request) {
  std::string out = request.method + " " + request.target;
  if (!request.query.empty()) {
    out += "?" + request.query;
  }
  out += " HTTP/1.1\r\n";
  for (const auto& [name, value] : request.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n\r\n";
  out += request.body;
  send_all(out);
}

namespace {

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("invalid IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("connect to " + host + ":" + std::to_string(port) +
                             " failed: " + std::strerror(saved));
  }
  return fd;
}

}  // namespace

HttpClient::HttpClient(const std::string& host, int port, HttpLimits limits)
    : host_(host + ":" + std::to_string(port)), stream_(connect_to(host, port), limits) {}

HttpResponse HttpClient::request(
    const std::string& method, const std::string& target, const std::string& body,
    std::vector<std::pair<std::string, std::string>> headers) {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.version = "HTTP/1.1";
  req.headers = std::move(headers);
  req.headers.emplace_back("Host", host_);
  req.headers.emplace_back("Connection", "keep-alive");
  req.body = body;
  stream_.write_request(req);
  HttpResponse response;
  if (!stream_.read_response(response)) {
    throw HttpError(500, "server closed the connection without responding");
  }
  return response;
}

}  // namespace greenfpga::serve
