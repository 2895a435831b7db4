/// \file json_writer.cpp
/// The canonical JSON writer (see json_writer.hpp): its slow paths, the
/// DOM walk, and the splice / finish bookkeeping.

#include "io/json_writer.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>

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

JsonWriter::~JsonWriter() {
  release_segments();
  std::free(buffer_);
}

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

template <class Emit>
void JsonWriter::for_each_segment(Emit&& emit) const {
  std::size_t from = 0;
  for (const Segment& segment : segments_) {
    if (segment.at != from) {
      emit(buffer_ + from, segment.at - from);
      from = segment.at;
    }
    emit(segment.data, segment.size);
  }
  const auto used = static_cast<std::size_t>(cursor_ - buffer_);
  if (used != from) {
    emit(buffer_ + from, used - from);
  }
}

void JsonWriter::release_segments() {
  for (char* part : spliced_) {
    std::free(part);
  }
  spliced_.clear();
  segments_.clear();
}

void JsonWriter::finish() {
  if (out_ == nullptr) {
    throw std::logic_error("JsonWriter: a continuation has no output; splice it");
  }
  std::size_t size = 0;
  for_each_segment([&size](const char* /*data*/, std::size_t n) { size += n; });
  if (size != 0) {
    out_->reserve(out_->size() + size);
    for_each_segment([this](const char* data, std::size_t n) { out_->append(data, n); });
  }
  release_segments();
  cursor_ = buffer_;
}

std::uint64_t JsonWriter::finish_hashed() {
  std::uint64_t hash = kFnv1aOffset;
  for_each_segment([&hash](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ static_cast<unsigned char>(data[i])) * kFnv1aPrime;
    }
  });
  finish();
  return hash;
}

void JsonWriter::splice(JsonWriter& part) {
  if (part.out_ != nullptr || part.depth_ != depth_ || part.key_pending_ || key_pending_ ||
      depth_ == 0 || frames_[depth_ - 1].object || frames_[depth_ - 1].empty) {
    throw std::logic_error(
        "JsonWriter: splice needs a continuation that ended in this writer's non-empty array");
  }
  // The part's own splices (if it spliced parts of its own) stay in its
  // order: all of them land at this writer's current offset.
  const auto at = static_cast<std::size_t>(cursor_ - buffer_);
  // Reserved first, so nothing below throws half-way through the handover.
  segments_.reserve(segments_.size() + 2 * part.segments_.size() + 1);
  spliced_.reserve(spliced_.size() + part.spliced_.size() + 1);
  part.for_each_segment([this, at](const char* data, std::size_t n) {
    segments_.push_back(Segment{.at = at, .data = data, .size = n});
  });
  spliced_.insert(spliced_.end(), part.spliced_.begin(), part.spliced_.end());
  if (part.buffer_ != nullptr) {
    spliced_.push_back(part.buffer_);
  }
  part.spliced_.clear();
  part.segments_.clear();
  part.buffer_ = part.cursor_ = part.end_ = nullptr;
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
