#ifndef GREENFPGA_IO_BYTE_SEGMENTS_HPP
#define GREENFPGA_IO_BYTE_SEGMENTS_HPP

/// \file byte_segments.hpp
/// Bytes kept in the buffers they were written in.
///
/// `JsonWriter::finish_segments()` hands its finished bytes over as the
/// writer's own malloc'd buffers, in document order, each shrunk to its
/// length: a document written in parallel chunks is several buffers, a
/// serial one is one.  Holding them costs what the bytes cost and no
/// copy; `append_to` is the one place they are gathered into a string.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

namespace greenfpga::io {

class ByteSegments {
 public:
  ByteSegments() = default;
  /// One segment holding a copy of `text`.
  explicit ByteSegments(std::string_view text) {
    if (text.empty()) {
      return;
    }
    char* const data = static_cast<char*>(std::malloc(text.size()));
    if (data == nullptr) {
      throw std::bad_alloc();
    }
    text.copy(data, text.size());
    adopt(data, text.size());
  }

  /// Total bytes.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Segment& segment : segments_) {
      total += segment.size;
    }
    return total;
  }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  /// Segment `i`'s bytes (non-empty), in document order.
  [[nodiscard]] std::string_view segment(std::size_t i) const {
    return {segments_[i].data.get(), segments_[i].size};
  }

  /// Append every byte to `out`, in order: one reserve, one copy per
  /// segment.
  void append_to(std::string& out) const {
    out.reserve(out.size() + size());
    for (const Segment& segment : segments_) {
      out.append(segment.data.get(), segment.size);
    }
  }
  /// The bytes as one string.
  [[nodiscard]] std::string str() const {
    std::string out;
    append_to(out);
    return out;
  }

 private:
  friend class JsonWriter;

  /// Take ownership of `size` malloc'd bytes at `data` as the last
  /// segment (an empty one is freed, not kept).  Does not throw on an
  /// empty buffer; may throw std::bad_alloc, freeing `data`.
  void adopt(char* data, std::size_t size) {
    Owned owned(data);
    if (size == 0) {
      return;
    }
    segments_.push_back(Segment{std::move(owned), size});
  }
  /// Move every segment of `more` to the end, leaving it empty.
  void append(ByteSegments&& more) {
    segments_.reserve(segments_.size() + more.segments_.size());
    for (Segment& segment : more.segments_) {
      segments_.push_back(std::move(segment));
    }
    more.segments_.clear();
  }

  struct Free {
    void operator()(char* data) const { std::free(data); }
  };
  using Owned = std::unique_ptr<char, Free>;
  struct Segment {
    Owned data;
    std::size_t size = 0;
  };

  std::vector<Segment> segments_;  ///< each non-empty
};

}  // namespace greenfpga::io

#endif  // GREENFPGA_IO_BYTE_SEGMENTS_HPP
