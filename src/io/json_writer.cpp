/// \file json_writer.cpp
/// The canonical JSON writer (see json_writer.hpp).

#include "io/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "io/hash.hpp"
#include "io/json_detail.hpp"

namespace greenfpga::io {

namespace {

/// The pad string indentation is copied from (in chunks past its length).
constexpr std::string_view kPad =
    "                                                                ";

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

JsonWriter::JsonWriter(Continuation, const JsonWriter& parent)
    : out_(nullptr),
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

void JsonWriter::finish() {
  if (out_ == nullptr) {
    throw std::logic_error("JsonWriter: a continuation has no output; splice it");
  }
  if (cursor_ != buffer_) {
    out_->append(buffer_, static_cast<std::size_t>(cursor_ - buffer_));
    cursor_ = buffer_;
  }
}

void JsonWriter::splice(JsonWriter& part) {
  if (part.out_ != nullptr || part.depth_ != depth_ || part.key_pending_ || key_pending_ ||
      depth_ == 0 || frames_[depth_ - 1].object || frames_[depth_ - 1].empty) {
    throw std::logic_error(
        "JsonWriter: splice needs a continuation that ended in this writer's non-empty array");
  }
  append(part.buffer_, static_cast<std::size_t>(part.cursor_ - part.buffer_));
  part.cursor_ = part.buffer_;
}

std::uint64_t JsonWriter::finish_hashed() {
  std::uint64_t hash = kFnv1aOffset;
  for (const char* p = buffer_; p != cursor_; ++p) {
    hash = (hash ^ static_cast<unsigned char>(*p)) * kFnv1aPrime;
  }
  finish();
  return hash;
}

void JsonWriter::grow(std::size_t n) {
  const auto used = static_cast<std::size_t>(cursor_ - buffer_);
  const auto capacity = static_cast<std::size_t>(end_ - buffer_);
  const std::size_t grown = std::max({used + n, 2 * capacity, std::size_t{4096}});
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

void JsonWriter::newline_pad(std::size_t depth) {
  if (indent_ == 0) {
    return;
  }
  put('\n');
  for (std::size_t n = indent_ * depth; n > 0;) {
    const std::size_t chunk = std::min(n, kPad.size());
    append(kPad.data(), chunk);
    n -= chunk;
  }
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

void JsonWriter::before_value() {
  if (depth_ == 0) {
    return;
  }
  Frame& frame = frames_[depth_ - 1];
  if (frame.object) {
    if (!key_pending_) {
      throw std::logic_error("JsonWriter: an object member needs a key before its value");
    }
    key_pending_ = false;
    return;
  }
  if (!frame.empty) {
    put(',');
  }
  frame.empty = false;
  newline_pad(depth_);
}

JsonWriter::Frame& JsonWriter::before_key(std::string_view key) {
  if (depth_ == 0 || !frames_[depth_ - 1].object || key_pending_) {
    throw std::logic_error("JsonWriter: key \"" + std::string(key) +
                           "\" written outside an object member position");
  }
  Frame& frame = frames_[depth_ - 1];
  if (!frame.empty) {
    const std::string_view last = frame.last_owned ? frame.owned_key : frame.last_key;
    if (!(last < key)) {
      throw std::logic_error("JsonWriter: key \"" + std::string(key) + "\" written after \"" +
                             std::string(last) +
                             "\" (object keys must be strictly increasing)");
    }
    put(',');
  }
  frame.empty = false;
  newline_pad(depth_);
  key_pending_ = true;
  return frame;
}

void JsonWriter::key_separator() {
  if (indent_ > 0) {
    append(": ", 2);
  } else {
    put(':');
  }
}

void JsonWriter::key(JsonKey key) {
  const std::string_view text = key.text();
  Frame& frame = before_key(text);
  frame.last_key = text;  // static storage: no copy
  frame.last_owned = false;
  reserve(text.size() + 2);
  *cursor_++ = '"';
  std::memcpy(cursor_, text.data(), text.size());
  cursor_ += text.size();
  *cursor_++ = '"';
  key_separator();
}

void JsonWriter::runtime_key(std::string_view key) {
  Frame& frame = before_key(key);
  frame.owned_key.assign(key);
  frame.last_owned = true;
  escaped(key);
  key_separator();
}

void JsonWriter::open(bool object, char bracket) {
  before_value();
  if (depth_ == frames_.size()) {
    frames_.emplace_back();
  }
  Frame& frame = frames_[depth_++];
  frame.object = object;
  frame.empty = true;
  frame.last_owned = false;
  put(bracket);
}

void JsonWriter::close(bool object, char bracket) {
  if (depth_ == 0 || frames_[depth_ - 1].object != object || key_pending_) {
    throw std::logic_error(std::string("JsonWriter: unbalanced '") + bracket + "'");
  }
  --depth_;
  if (!frames_[depth_].empty) {
    newline_pad(depth_);
  }
  put(bracket);
}

void JsonWriter::newline() {
  if (depth_ != 0) {
    throw std::logic_error("JsonWriter: newline inside a container");
  }
  put('\n');
}

void JsonWriter::begin_object() { open(true, '{'); }
void JsonWriter::end_object() { close(true, '}'); }
void JsonWriter::begin_array() { open(false, '['); }
void JsonWriter::end_array() { close(false, ']'); }

void JsonWriter::null() {
  before_value();
  append("null", 4);
}

void JsonWriter::boolean(bool value) {
  before_value();
  if (value) {
    append("true", 4);
  } else {
    append("false", 5);
  }
}

void JsonWriter::number(double value) {
  before_value();
  reserve(detail::kNumberBufferSize + 2);
  if (std::isfinite(value)) {
    cursor_ += detail::format_number_to(cursor_, value);
    return;
  }
  *cursor_++ = '"';
  cursor_ += detail::format_number_to(cursor_, value);
  *cursor_++ = '"';
}

void JsonWriter::string(std::string_view value) {
  before_value();
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
