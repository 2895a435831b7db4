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
/// The writer streams into a growing char buffer.  Object keys known at
/// compile time (`JsonKey`) are copied as-is, with no escaping pass, and
/// indentation is copied from one pad string.  Canonical output sorts
/// object keys, so a streamed object must be written in sorted key order:
/// in every build the writer checks that each key is greater than the one
/// before it in the same object and throws `std::logic_error` otherwise
/// (which also rejects duplicate keys).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel.hpp"
#include "io/json.hpp"

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
/// The writer works in a char buffer of its own that grows by `realloc`
/// (large blocks are remapped, not copied and re-faulted the way a
/// doubling std::string is -- on a multi-MB result that growth cost more
/// than writing the bytes).  Only `finish()` appends the buffered bytes to
/// `out`; a writer destroyed without it (say, by an exception) leaves
/// `out` unchanged.  `indent` <= 0 writes the compact single-line form.
///
/// A *continuation* writer writes the next stretch of a document another
/// writer has open, so one array's elements can be written in parallel:
/// it starts inside the parent's open containers (same depth, indent and
/// key-order state, the innermost array already non-empty), and
/// `parent.splice(part)` moves its bytes into the parent's buffer in
/// order.  The bytes equal those of writing every element on the parent.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 2);
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
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // -- object keys -------------------------------------------------------------
  /// The next member's key; the member's value is the next value written.
  void key(JsonKey key);
  /// A key only known at run time (escaped on write).
  void runtime_key(std::string_view key);

  // -- values ------------------------------------------------------------------
  void null();
  void boolean(bool value);
  /// Shortest round-trip form; non-finite values as the quoted sentinels
  /// "inf" / "-inf" / "nan" (RFC 8259 has no literal for them).
  void number(double value);
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

  /// Append the bytes written since the last `finish()` to `out`.  The
  /// writer stays usable.
  void finish();
  /// Append the bytes `part` (a continuation of this writer) wrote since
  /// its last splice, and leave `part` empty.  Throws std::logic_error
  /// unless `part` ended in the container this writer is in.
  void splice(JsonWriter& part);
  /// `finish()`, returning the FNV-1a 64 digest of the bytes it appended
  /// (`io::fnv1a64` of them), folded as they are handed over.
  [[nodiscard]] std::uint64_t finish_hashed();

 private:
  struct Frame {
    bool object = false;
    bool empty = true;          ///< nothing written inside yet
    bool last_owned = false;    ///< the previous key is `owned_key`, not `last_key`
    std::string_view last_key;  ///< the previous compile-time key (static storage)
    std::string owned_key;      ///< copy of the previous runtime key
  };

  /// Separator and indentation ahead of a value.
  void before_value();
  /// Separator, indentation and order check ahead of a key; returns the
  /// enclosing object's frame.
  Frame& before_key(std::string_view key);
  void key_separator();
  void open(bool object, char bracket);
  void close(bool object, char bracket);
  void newline_pad(std::size_t depth);
  void escaped(std::string_view text);

  void reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cursor_) < n) {
      grow(n);
    }
  }
  void grow(std::size_t n);
  void put(char c) {
    reserve(1);
    *cursor_++ = c;
  }
  void append(const char* data, std::size_t n);

  std::string* out_;  ///< null for a continuation
  std::size_t indent_ = 0;
  char* buffer_ = nullptr;     ///< malloc'd; bytes not yet appended to out_
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
