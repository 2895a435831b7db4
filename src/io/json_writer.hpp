#ifndef GREENFPGA_IO_JSON_WRITER_HPP
#define GREENFPGA_IO_JSON_WRITER_HPP

/// \file json_writer.hpp
/// The canonical JSON writer: the one place JSON text is made.
///
/// Every byte of JSON this repo emits -- `Json::dump_to`, the arena
/// document's dump, and the scenario result bytes the kind modules write
/// without building a DOM -- goes through `JsonWriter`, so the pretty and
/// compact format rules (separators, indentation, number and string
/// encoding) live here and nowhere else.
///
/// The writer streams into char buffers of its own.  Object keys known at
/// compile time (`JsonKey`) are copied as-is, with no escaping pass, and
/// indentation is copied in fixed-size blocks from one pad string.
/// Canonical output sorts object keys, so a streamed object must be
/// written in sorted key order: in every build the writer checks that each
/// key is greater than the one before it in the same object and throws
/// `std::logic_error` otherwise (which also rejects duplicate keys).
///
/// The per-token calls (keys, numbers, brackets) are inline: each reserves
/// everything its separator, indentation and token can write with one
/// capacity check, then stores the bytes.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel.hpp"
#include "io/byte_segments.hpp"
#include "io/json.hpp"
#include "io/json_detail.hpp"

namespace greenfpga::io {

/// An object key known at compile time.  The consteval constructor rejects
/// (at compile time) any key that would need JSON escaping, so the writer
/// can copy its bytes verbatim.
class JsonKey {
 public:
  consteval JsonKey(const char* text) : text_(text) {  // NOLINT: implicit from literals
    for (const char c : text_) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        throw "JsonKey: a compile-time key must not need escaping";
      }
    }
  }

  [[nodiscard]] constexpr std::string_view text() const { return text_; }

 private:
  std::string_view text_;
};

/// Streams JSON into a std::string.
///
///   std::string text;
///   JsonWriter out(text, /*indent=*/2);
///   out.begin_object();
///   out.number("a", 1.0);
///   out.key("b");
///   out.begin_array();
///   out.string("x");
///   out.end_array();
///   out.end_object();
///   out.finish();  // appends the written bytes to `text`
///
/// The writer works in char buffers of its own: one that grows by
/// `realloc` up to kBlockBytes, then a chain of blocks of that size, so
/// a multi-MB document is never moved or regrown, and its blocks come
/// from malloc's heap, reused from document to document (a doubling
/// std::string was copied and re-faulted; a buffer regrown past malloc's
/// mmap threshold is mapped fresh, and faulted, per document).
/// `finish_segments()` hands the finished buffers over as they are
/// (`ByteSegments`, each shrunk to fit), and `finish()` appends them to
/// `out`; a writer destroyed without either (say, by an exception)
/// leaves `out` unchanged.  `indent` <= 0 writes the compact single-line
/// form.
///
/// A *continuation* writer writes the next stretch of a document another
/// writer has open, so one array's elements can be written in parallel:
/// it starts inside the parent's open containers (same depth, indent and
/// key-order state, the innermost array already non-empty), and
/// `parent.splice(part)` hands its buffers to the parent at the parent's
/// current position, after the parent's own buffer so far, which is
/// finished there too.  The bytes equal those of writing every element on
/// the parent.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 2);
  /// A writer with no output string, whose bytes are taken by
  /// `finish_segments()` (`finish()` on it throws std::logic_error).
  explicit JsonWriter(int indent);
  /// Tag selecting the continuation constructor.
  struct Continuation {};
  static constexpr Continuation continuation{};
  /// A continuation of `parent`, which must be inside an array holding at
  /// least one element by the time this writer's bytes are spliced.  Has
  /// no output of its own: `finish()` on it throws std::logic_error.
  JsonWriter(Continuation, const JsonWriter& parent);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // -- containers --------------------------------------------------------------
  void begin_object() { open(true, '{'); }
  void end_object() { close(true, '}'); }
  void begin_array() { open(false, '['); }
  void end_array() { close(false, ']'); }

  // -- object keys -------------------------------------------------------------
  /// The next member's key; the member's value is the next value written.
  /// Forced inline: GCC would keep it out of line, and only inlined is the
  /// key's length a constant, its copy a few stores.
  [[gnu::always_inline]] void key(JsonKey key) {
    const std::string_view text = key.text();
    Frame& frame = key_frame(text);
    const bool first = frame.empty;
    frame.empty = false;
    frame.last_key = text;  // static storage: no copy
    frame.last_owned = false;
    const bool pretty = indent_ != 0;
    char* p = line_start(first, text.size() + 4);  // the quotes, ':' and ' '
    *p++ = '"';
    std::memcpy(p, text.data(), text.size());
    p += text.size();
    p[0] = '"';
    p[1] = ':';
    p[2] = ' ';
    cursor_ = p + (pretty ? 3 : 2);
  }
  /// A key only known at run time (escaped on write).
  void runtime_key(std::string_view key);

  // -- values ------------------------------------------------------------------
  void null();
  void boolean(bool value);
  /// Shortest round-trip form; non-finite values as the quoted sentinels
  /// "inf" / "-inf" / "nan" (RFC 8259 has no literal for them).
  void number(double value) {
    char* const p = value_start(detail::kNumberBufferSize + 2);
    if (std::isfinite(value)) {
      cursor_ = p + detail::format_number_to(p, value);
    } else {
      quoted_number(p, value);
    }
  }
  void string(std::string_view value);
  /// An array of numbers.
  void numbers(std::span<const double> values);
  /// Splice a DOM subtree (its object members are sorted, as every
  /// `Json` object's are).
  void json(const Json& value);

  // -- key + value shorthands ----------------------------------------------------
  void number(JsonKey name, double value) {
    key(name);
    number(value);
  }
  void string(JsonKey name, std::string_view value) {
    key(name);
    string(value);
  }
  void numbers(JsonKey name, std::span<const double> values) {
    key(name);
    numbers(values);
  }
  void json(JsonKey name, const Json& value) {
    key(name);
    json(value);
  }

  /// A bare '\n' after a top-level value: the line end that files and
  /// HTTP bodies carry.  Throws std::logic_error inside a container.
  void newline();

  /// Hand over the bytes written since the last finish, spliced parts'
  /// included, as the buffers they were written in, in document order and
  /// each shrunk to fit.  Nothing is copied.  The writer stays usable.
  /// Throws std::logic_error on a continuation.
  [[nodiscard]] ByteSegments finish_segments();
  /// Append `finish_segments()` to `out`.
  void finish();
  /// Hand the buffers `part` (a continuation of this writer) wrote since
  /// its last splice to this writer, at its current position, and leave
  /// `part` empty.  Nothing is copied.  Throws std::logic_error unless
  /// `part` ended in the container this writer is in.
  void splice(JsonWriter& part);
  /// `finish()`, returning the FNV-1a 64 digest of the bytes it appended
  /// (`io::fnv1a64` of them).
  [[nodiscard]] std::uint64_t finish_hashed();

 private:
  struct Frame {
    bool object = false;
    bool empty = true;          ///< nothing written inside yet
    bool last_owned = false;    ///< the previous key is `owned_key`, not `last_key`
    std::string_view last_key;  ///< the previous compile-time key (static storage)
    std::string owned_key;      ///< copy of the previous runtime key
  };

  /// The size of a full buffer: below glibc's smallest mmap threshold
  /// (128 KiB), so blocks are heap memory.
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  /// Indentation is copied in blocks of this many bytes, so a block copy
  /// may store up to kPadBlock - 1 bytes past the indentation's end: every
  /// reserve ahead of a line break counts them in.
  static constexpr std::size_t kPadBlock = 32;
  /// A line break, then one block of spaces from offset 1.
  static constexpr char kLinePad[kPadBlock + 2] = "\n                                ";
  static_assert(kLinePad[kPadBlock] == ' ');

  // -- the per-token fast path ----------------------------------------------------
  //
  // Each token reserves all it may store with one capacity check, then
  // writes through a local pointer and stores `cursor_` once at the end
  // (a char store may alias any member, so writing through `cursor_`
  // itself would reload the writer's state after every byte).

  void reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cursor_) < n) {
      grow(n);
    }
  }
  /// "\n" and `pad` spaces at `p`, block by block, where 1 + pad +
  /// kPadBlock bytes are reserved; returns the end of the spaces.
  static char* line_break(char* p, std::size_t pad) {
    std::memcpy(p, kLinePad, kPadBlock);
    for (std::size_t done = kPadBlock; done < pad + 1; done += kPadBlock) {
      std::memcpy(p + done, kLinePad + 1, kPadBlock);
    }
    return p + pad + 1;
  }
  /// Reserve room for a ',', a line break at the current depth and `bytes`
  /// more; write the ',' (unless `first`) and the line break (when pretty),
  /// and return where the token goes.
  char* line_start(bool first, std::size_t bytes) {
    const std::size_t indent = indent_;
    const std::size_t pad = indent * depth_;
    reserve(1 + pad + kPadBlock + bytes);
    char* p = cursor_;
    *p = ',';
    p += first ? 0 : 1;
    return indent != 0 ? line_break(p, pad) : p;
  }
  /// The separator and indentation ahead of a value, with `bytes` more
  /// reserved for the value itself; returns where the value goes.
  char* value_start(std::size_t bytes) {
    if (depth_ != 0) {
      Frame& frame = frames_[depth_ - 1];
      if (!frame.object) {
        const bool first = frame.empty;
        frame.empty = false;
        return line_start(first, bytes);
      }
      if (!key_pending_) {
        throw_value_without_key();
      }
      key_pending_ = false;
    }
    reserve(bytes);
    return cursor_;
  }
  /// The enclosing object's frame, once `key` is checked to be in a member
  /// position and after the object's previous key; the key's value is
  /// pending from here on.
  Frame& key_frame(std::string_view key) {
    if (depth_ == 0 || !frames_[depth_ - 1].object || key_pending_) {
      throw_misplaced_key(key);
    }
    Frame& frame = frames_[depth_ - 1];
    if (!frame.empty) {
      const std::string_view last = frame.last_owned ? frame.owned_key : frame.last_key;
      // Sibling keys mostly differ in their first byte.
      const bool ordered =
          !last.empty() && !key.empty() && last.front() != key.front()
              ? static_cast<unsigned char>(last.front()) < static_cast<unsigned char>(key.front())
              : last < key;
      if (!ordered) {
        throw_misordered_key(key, last);
      }
    }
    key_pending_ = true;
    return frame;
  }
  void open(bool object, char bracket) {
    char* const p = value_start(1);
    if (depth_ == frames_.size()) {
      frames_.emplace_back();
    }
    Frame& frame = frames_[depth_++];
    frame.object = object;
    frame.empty = true;
    frame.last_owned = false;
    *p = bracket;
    cursor_ = p + 1;
  }
  void close(bool object, char bracket) {
    if (depth_ == 0 || frames_[depth_ - 1].object != object || key_pending_) {
      throw_unbalanced(bracket);
    }
    --depth_;
    const bool empty = frames_[depth_].empty;
    const std::size_t pad = indent_ * depth_;
    const bool pretty = indent_ != 0;
    reserve(1 + pad + kPadBlock);
    char* p = cursor_;
    if (!empty && pretty) {
      p = line_break(p, pad);
    }
    *p = bracket;
    cursor_ = p + 1;
  }

  // -- out of line -------------------------------------------------------------------

  [[noreturn]] static void throw_value_without_key();
  [[noreturn]] static void throw_misplaced_key(std::string_view key);
  [[noreturn]] static void throw_misordered_key(std::string_view key, std::string_view last);
  [[noreturn]] static void throw_unbalanced(char bracket);
  /// A non-finite number's quoted sentinel at `p`, in the room `number`
  /// reserved.
  void quoted_number(char* p, double value);
  void escaped(std::string_view text);
  /// Room for `n` more bytes: a bigger buffer below kBlockBytes, else
  /// the full one sealed and a fresh block.
  void grow(std::size_t n);
  void put(char c) {
    reserve(1);
    *cursor_++ = c;
  }
  void append(const char* data, std::size_t n);
  /// Shrink the buffer to its bytes and move it to `finished_` (a writer
  /// with no bytes in its buffer keeps it).
  void seal();
  /// `seal()`, then hand over `finished_`.
  [[nodiscard]] ByteSegments take();
  /// `*out_`; throws std::logic_error when there is none.
  [[nodiscard]] std::string& output() const;

  std::string* out_;  ///< null for a continuation or a segments-only writer
  bool continuation_ = false;
  std::size_t indent_ = 0;
  ByteSegments finished_;      ///< the bytes before buffer_'s, not yet handed over
  char* buffer_ = nullptr;     ///< malloc'd; the bytes after finished_'s
  char* cursor_ = nullptr;     ///< next byte to write
  char* end_ = nullptr;        ///< end of buffer_
  std::vector<Frame> frames_;  ///< [0, depth_) are the open containers
  std::size_t depth_ = 0;
  bool key_pending_ = false;  ///< a key was written; its value comes next
};

/// Write `count` elements into the array `out` is in, element `i` by
/// `write(writer, i)`, in contiguous chunks on up to `threads` workers
/// (`core::parallel_for_state`; `item_work` estimates one element's cost
/// for its inline cutoff).  The first chunk goes to `out` itself and each
/// later one to a continuation spliced back in order, so the bytes equal
/// a serial loop's, and each chunk still checks its key order.  An
/// exception from any element is rethrown here.
template <class WriteElement>
void write_elements(JsonWriter& out, std::size_t count, int threads, std::size_t item_work,
                    WriteElement&& write) {
  const std::size_t chunks = core::pool_workers(count, threads, item_work);
  if (chunks <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      write(out, i);
    }
    return;
  }
  std::deque<JsonWriter> parts;  // stable addresses; JsonWriter does not move
  for (std::size_t c = 1; c < chunks; ++c) {
    parts.emplace_back(JsonWriter::continuation, out);
  }
  core::parallel_for_state(
      chunks, static_cast<int>(chunks), [] { return 0; },
      [&](int& /*state*/, std::size_t c) {
        JsonWriter& writer = c == 0 ? out : parts[c - 1];
        for (std::size_t i = c * count / chunks; i < (c + 1) * count / chunks; ++i) {
          write(writer, i);
        }
      },
      (count + chunks - 1) / chunks * item_work);
  for (JsonWriter& part : parts) {
    out.splice(part);
  }
}

/// Build a DOM from writer calls: `write(writer)` fills a compact buffer,
/// which is then parsed.  For the few callers that need an `io::Json` of a
/// shape that is otherwise only ever streamed.
template <class Write>
[[nodiscard]] Json written_json(Write&& write) {
  std::string text;
  JsonWriter writer(text, 0);
  write(writer);
  writer.finish();
  return parse_json(text);
}

}  // namespace greenfpga::io

#endif  // GREENFPGA_IO_JSON_WRITER_HPP
