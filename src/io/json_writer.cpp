/// \file json_writer.cpp
/// The canonical JSON writer (see json_writer.hpp): its slow paths, the
/// DOM walk, and the splice / finish bookkeeping.

#include "io/json_writer.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <utility>

#include "io/hash.hpp"

namespace greenfpga::io {

namespace {

[[nodiscard]] bool needs_escaping(std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

}  // namespace

JsonWriter::JsonWriter(std::string& out, int indent)
    : out_(&out), indent_(indent > 0 ? static_cast<std::size_t>(indent) : 0) {}

JsonWriter::JsonWriter(int indent)
    : out_(nullptr), indent_(indent > 0 ? static_cast<std::size_t>(indent) : 0) {}

JsonWriter::JsonWriter(Continuation, const JsonWriter& parent)
    : out_(nullptr),
      continuation_(true),
      indent_(parent.indent_),
      frames_(parent.frames_.begin(),
              parent.frames_.begin() + static_cast<std::ptrdiff_t>(parent.depth_)),
      depth_(parent.depth_) {
  if (depth_ == 0 || frames_.back().object || parent.key_pending_) {
    throw std::logic_error("JsonWriter: a continuation must start inside an array");
  }
  frames_.back().empty = false;  // the parent writes the elements before ours
}

JsonWriter::~JsonWriter() { std::free(buffer_); }

// -- errors -----------------------------------------------------------------------------

void JsonWriter::throw_value_without_key() {
  throw std::logic_error("JsonWriter: an object member needs a key before its value");
}

void JsonWriter::throw_misplaced_key(std::string_view key) {
  throw std::logic_error("JsonWriter: key \"" + std::string(key) +
                         "\" written outside an object member position");
}

void JsonWriter::throw_misordered_key(std::string_view key, std::string_view last) {
  throw std::logic_error("JsonWriter: key \"" + std::string(key) + "\" written after \"" +
                         std::string(last) + "\" (object keys must be strictly increasing)");
}

void JsonWriter::throw_unbalanced(char bracket) {
  throw std::logic_error(std::string("JsonWriter: unbalanced '") + bracket + "'");
}

// -- output ---------------------------------------------------------------------------

void JsonWriter::seal() {
  const auto used = static_cast<std::size_t>(cursor_ - buffer_);
  if (used == 0) {
    return;
  }
  // Shrinking in place cannot fail in practice; if it does, the slack stays.
  void* const shrunk = std::realloc(buffer_, used);
  char* const data = shrunk != nullptr ? static_cast<char*>(shrunk) : buffer_;
  buffer_ = cursor_ = end_ = nullptr;
  finished_.adopt(data, used);
}

ByteSegments JsonWriter::take() {
  seal();
  return std::exchange(finished_, ByteSegments{});
}

ByteSegments JsonWriter::finish_segments() {
  if (continuation_) {
    throw std::logic_error("JsonWriter: a continuation has no output; splice it");
  }
  return take();
}

std::string& JsonWriter::output() const {
  if (out_ == nullptr) {
    throw std::logic_error(continuation_
                               ? "JsonWriter: a continuation has no output; splice it"
                               : "JsonWriter: no output string; take finish_segments()");
  }
  return *out_;
}

void JsonWriter::finish() {
  std::string& out = output();
  take().append_to(out);
}

std::uint64_t JsonWriter::finish_hashed() {
  std::string& out = output();
  const ByteSegments bytes = take();
  std::uint64_t hash = kFnv1aOffset;
  for (std::size_t i = 0; i < bytes.segment_count(); ++i) {
    for (const char c : bytes.segment(i)) {
      hash = (hash ^ static_cast<unsigned char>(c)) * kFnv1aPrime;
    }
  }
  bytes.append_to(out);
  return hash;
}

void JsonWriter::splice(JsonWriter& part) {
  if (!part.continuation_ || part.depth_ != depth_ || part.key_pending_ || key_pending_ ||
      depth_ == 0 || frames_[depth_ - 1].object || frames_[depth_ - 1].empty) {
    throw std::logic_error(
        "JsonWriter: splice needs a continuation that ended in this writer's non-empty array");
  }
  // This writer's bytes so far end where the part's begin; the bytes it
  // writes next go to a fresh buffer after them.
  seal();
  finished_.append(part.take());
}

void JsonWriter::grow(std::size_t n) {
  const auto used = static_cast<std::size_t>(cursor_ - buffer_);
  const auto capacity = static_cast<std::size_t>(end_ - buffer_);
  if (capacity >= kBlockBytes && used != 0) {
    // A full block: finish it and go on in a fresh one.  No byte is moved.
    seal();
    const std::size_t size = std::max(kBlockBytes, n);
    buffer_ = static_cast<char*>(std::malloc(size));
    if (buffer_ == nullptr) {
      throw std::bad_alloc();
    }
    cursor_ = buffer_;
    end_ = buffer_ + size;
    return;
  }
  // Up to a block, by doubling: a small document stays one buffer.
  const std::size_t grown =
      std::max({used + n, std::min(2 * capacity, kBlockBytes), std::size_t{4096}});
  void* const moved = std::realloc(buffer_, grown);
  if (moved == nullptr) {
    throw std::bad_alloc();
  }
  buffer_ = static_cast<char*>(moved);
  cursor_ = buffer_ + used;
  end_ = buffer_ + grown;
}

void JsonWriter::append(const char* data, std::size_t n) {
  reserve(n);
  std::memcpy(cursor_, data, n);
  cursor_ += n;
}

void JsonWriter::escaped(std::string_view text) {
  if (!needs_escaping(text)) {
    reserve(text.size() + 2);
    *cursor_++ = '"';
    if (!text.empty()) {  // an empty view may carry a null data()
      std::memcpy(cursor_, text.data(), text.size());
      cursor_ += text.size();
    }
    *cursor_++ = '"';
    return;
  }
  // The escaping rule itself is shared with the parser's hash-while-parse.
  struct Sink {
    JsonWriter& writer;
    void push(char c) { writer.put(c); }
    void append(const char* data, std::size_t n) { writer.append(data, n); }
  };
  Sink sink{*this};
  detail::write_escaped(sink, text);
}

// -- tokens ---------------------------------------------------------------------------

void JsonWriter::runtime_key(std::string_view key) {
  Frame& frame = key_frame(key);
  const bool first = frame.empty;
  frame.empty = false;
  cursor_ = line_start(first, 0);
  frame.owned_key.assign(key);
  frame.last_owned = true;
  escaped(key);
  put(':');
  if (indent_ > 0) {
    put(' ');
  }
}

void JsonWriter::newline() {
  if (depth_ != 0) {
    throw std::logic_error("JsonWriter: newline inside a container");
  }
  put('\n');
}

void JsonWriter::null() {
  char* const p = value_start(4);
  std::memcpy(p, "null", 4);
  cursor_ = p + 4;
}

void JsonWriter::boolean(bool value) {
  char* const p = value_start(5);
  const std::string_view text = value ? "true" : "false";
  std::memcpy(p, text.data(), text.size());
  cursor_ = p + text.size();
}

void JsonWriter::quoted_number(char* p, double value) {
  *p++ = '"';
  p += detail::format_number_to(p, value);
  *p++ = '"';
  cursor_ = p;
}

void JsonWriter::string(std::string_view value) {
  cursor_ = value_start(0);
  escaped(value);
}

void JsonWriter::numbers(std::span<const double> values) {
  begin_array();
  for (const double value : values) {
    number(value);
  }
  end_array();
}

void JsonWriter::json(const Json& value) {
  switch (value.type()) {
    case Json::Type::null:
      null();
      return;
    case Json::Type::boolean:
      boolean(value.as_bool());
      return;
    case Json::Type::number:
      number(value.as_number());
      return;
    case Json::Type::string:
      string(value.as_string());
      return;
    case Json::Type::array:
      begin_array();
      for (const Json& element : value.as_array()) {
        json(element);
      }
      end_array();
      return;
    case Json::Type::object:
      begin_object();
      for (const auto& [member_key, member] : value.as_object()) {
        runtime_key(member_key);
        json(member);
      }
      end_object();
      return;
  }
}

}  // namespace greenfpga::io
