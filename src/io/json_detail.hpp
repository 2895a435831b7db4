#ifndef GREENFPGA_IO_JSON_DETAIL_HPP
#define GREENFPGA_IO_JSON_DETAIL_HPP

/// \file json_detail.hpp
/// Shared internals of the JSON facade (json.cpp) and the arena DOM
/// (json_arena.cpp).  Not part of the public io:: API.
///
/// Three pieces live here so the two DOMs and the writer (json_writer.hpp)
/// can never drift apart on the wire format:
///
///   * `format_number_to` -- the shortest-round-trip number formatter
///     (one in-tree shortest-digits kernel that writes printf's %g
///     presentation directly, byte-identical to the historical snprintf
///     probe loop, and a table lookup for a number the thread formatted
///     recently);
///   * `write_escaped` -- JSON string escaping into any Sink, shared by
///     `JsonWriter` and the parser's hash-while-parse (`HashSink`);
///   * `ParserCore<Builder>` -- the recursive-descent RFC 8259 parser,
///     templated on a builder policy so the same lexer/validator grows
///     either the mutable `Json` facade or the immutable arena document,
///     and computes the canonical-stream FNV-1a digest *while parsing*
///     (valid whenever object keys arrive already sorted, which is true
///     of every canonical artifact this repo emits).

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "io/hash.hpp"
#include "io/json.hpp"

namespace greenfpga::io::detail {

inline constexpr std::uint64_t kFnvOffset = kFnv1aOffset;
inline constexpr std::uint64_t kFnvPrime = kFnv1aPrime;

/// The buffer `format_number_to` may write to (sign + 17 digits + point +
/// "e-308" leaves ample slack).
inline constexpr std::size_t kNumberBufferSize = 40;

/// The longest canonical form: sign, 17 significant digits, point, "e-308".
inline constexpr std::size_t kMaxNumberBytes = 24;
static_assert(kMaxNumberBytes <= kNumberBufferSize);

/// Write the canonical shortest-round-trip form of `n` into `buffer`
/// (bare non-finite sentinels "inf"/"-inf"/"nan"); returns the length.
/// `buffer` must hold kNumberBufferSize bytes; bytes past the length are
/// scratch (the formatter may write them).  Defined in number_format.cpp;
/// `io::format_number` is a std::string wrapper.
///
/// The form is the probe loop's at every double.  Before the kernel, 92
/// doubles (46 powers of two and their negatives, e.g. 2^-24) printed 16
/// shortest digits that %.16g does not; they now print 17
/// ("5.9604644775390625e-08").  Canonical spec text is the content key,
/// so a spec or stored result holding one of them has a new cache and
/// store key, and its old entry misses once.
///
/// Results are memoised per thread in a direct-mapped table of
/// kNumberMemoSlots slots keyed by the double's bit pattern (so 0 and -0
/// are distinct keys).  A hit copies the bytes a miss wrote, so the output
/// is identical by construction.  It pays because results repeat numbers:
/// a volume x lifetime grid writes each point's embodied terms, which
/// depend on volume alone, once per lifetime value.
std::size_t format_number_to(char* buffer, double n);

/// Slot count of the per-thread `format_number_to` memo: 2048 slots of
/// 32 bytes, 64 KiB per thread.  A 50x50 grid result carries about 10.6k
/// distinct numbers, and its embodied terms recur once per grid row; a
/// bigger memo serves more of them (on that workload's serve path 1024
/// slots served 50% of all calls, 2048 62% and 4096 70%), but every
/// thread that formats pays for its memo in resident memory.
inline constexpr int kNumberMemoBits = 11;
inline constexpr std::size_t kNumberMemoSlots = std::size_t{1} << kNumberMemoBits;

/// The memo's hash of a double's bit pattern (Fibonacci hashing: a
/// multiplication by an odd constant, so a bijection that spreads nearby
/// doubles out).
[[nodiscard]] constexpr std::uint64_t number_memo_hash(std::uint64_t bits) {
  return bits * 0x9E3779B97F4A7C15ULL;
}

/// The memo slot of a double's bit pattern: the top bits of its hash.
[[nodiscard]] constexpr std::size_t number_memo_slot(std::uint64_t bits) {
  return static_cast<std::size_t>(number_memo_hash(bits) >> (64 - kNumberMemoBits));
}

/// The calling thread's memoised bytes for `n`, or empty when its slot
/// holds another number (a test hook: the formatter never needs it).
[[nodiscard]] std::string_view memoised_number(double n);

// -- escaping ---------------------------------------------------------------

/// Folds bytes into a streaming FNV-1a digest; nothing is materialized
/// (the parser's hash-while-parse sink).
struct HashSink {
  std::uint64_t hash = kFnvOffset;
  void append(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) push(data[i]);
  }
  void push(char c) {
    hash = (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
};

/// JSON string escaping (quotes included), identical bytes for every sink.
template <class Sink>
void write_escaped(Sink& sink, std::string_view s) {
  sink.push('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        sink.append("\\\"", 2);
        break;
      case '\\':
        sink.append("\\\\", 2);
        break;
      case '\b':
        sink.append("\\b", 2);
        break;
      case '\f':
        sink.append("\\f", 2);
        break;
      case '\n':
        sink.append("\\n", 2);
        break;
      case '\r':
        sink.append("\\r", 2);
        break;
      case '\t':
        sink.append("\\t", 2);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          const int n = std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          sink.append(buffer, static_cast<std::size_t>(n));
        } else {
          sink.push(c);
        }
    }
  }
  sink.push('"');
}

// -- parser core ------------------------------------------------------------

/// How a member landed in its object, from the builder's point of view.
enum class MemberOrder {
  appended,  ///< key was greater than every existing key (sorted input)
  inserted,  ///< key was out of order and had to be placed mid-vector
  duplicate  ///< key already present: the parser rejects the document
};

/// The recursive-descent parser, templated on a builder policy.
///
/// Builder interface (see FacadeBuilder in json.cpp, ArenaBuilder in
/// json_arena.cpp):
///
///   using Value = ...;            // movable node handle
///   struct ArrayCtx; struct ObjectCtx;
///   Value null_value();  Value boolean(bool);  Value number(double);
///   Value string_value(std::string_view decoded);   // must copy
///   ArrayCtx array_begin();
///   void array_push(ArrayCtx&, Value);
///   Value array_end(ArrayCtx&);
///   ObjectCtx object_begin();
///   MemberOrder member_key(ObjectCtx&, std::string_view key);  // must copy
///   void member_value(ObjectCtx&, Value);  // fills the pending member
///   Value object_end(ObjectCtx&);
///
/// `member_key` is called before the member's value is parsed (the key
/// view dies at the next lexer step, so the builder copies it there) and
/// reports ordering, which drives both sorted storage and the
/// hash-while-parse validity bit.
template <class Builder>
class ParserCore {
 public:
  ParserCore(std::string_view text, JsonParseOptions options, Builder& builder,
             bool hash_canonical)
      : text_(text), options_(options), builder_(builder), hashing_(hash_canonical) {
    // Skip a UTF-8 byte-order mark if present.
    if (text_.substr(0, 3) == "\xEF\xBB\xBF") {
      pos_ = 3;
    }
  }

  typename Builder::Value parse_document() {
    typename Builder::Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

  /// The FNV-1a digest of the document's canonical compact byte stream
  /// (`Json::dump(0)` bytes), when it could be computed during the parse:
  /// hashing was requested and every object's keys arrived sorted.
  [[nodiscard]] std::optional<std::uint64_t> canonical_digest() const {
    if (hashing_) return hash_.hash;
    return std::nullopt;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("JSON parse error at " + std::to_string(line) + ":" +
                    std::to_string(column) + ": " + message);
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (options_.allow_comments && c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!at_end() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  typename Builder::Value parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        const std::string_view s = parse_string();
        if (hashing_) write_escaped(hash_, s);
        return builder_.string_value(s);
      }
      case 't':
        parse_keyword("true");
        return builder_.boolean(true);
      case 'f':
        parse_keyword("false");
        return builder_.boolean(false);
      case 'n':
        parse_keyword("null");
        return builder_.null_value();
      default:
        return parse_number();
    }
  }

  void parse_keyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      fail("invalid literal (expected '" + std::string(keyword) + "')");
    }
    pos_ += keyword.size();
    if (hashing_) hash_.append(keyword.data(), keyword.size());
  }

  /// RAII nesting guard: one per parse_object/parse_array activation.
  /// The recursive-descent parser spends one stack frame per level, so
  /// the cap turns a deeply-nested bomb ("["*100k) into a JsonError at
  /// the offending bracket instead of a stack overflow.
  class DepthGuard {
   public:
    explicit DepthGuard(ParserCore& parser) : parser_(parser) {
      if (++parser_.depth_ > parser_.options_.max_depth) {
        parser_.fail("nesting depth exceeds " + std::to_string(parser_.options_.max_depth));
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    ParserCore& parser_;
  };

  typename Builder::Value parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    if (hashing_) hash_.push('{');
    typename Builder::ObjectCtx ctx = builder_.object_begin();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      if (hashing_) hash_.push('}');
      return builder_.object_end(ctx);
    }
    bool first = true;
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected string key in object");
      const std::string_view key = parse_string();
      const MemberOrder order = builder_.member_key(ctx, key);
      if (order == MemberOrder::duplicate) {
        fail("duplicate object key");
      }
      if (order == MemberOrder::inserted) {
        // Keys out of source order: the canonical (sorted) byte stream
        // can no longer be reproduced on the fly.
        hashing_ = false;
      }
      if (hashing_) {
        if (!first) hash_.push(',');
        write_escaped(hash_, key);
        hash_.push(':');
      }
      first = false;
      skip_whitespace();
      expect(':');
      builder_.member_value(ctx, parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      if (hashing_) hash_.push('}');
      return builder_.object_end(ctx);
    }
  }

  typename Builder::Value parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    if (hashing_) hash_.push('[');
    typename Builder::ArrayCtx ctx = builder_.array_begin();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      if (hashing_) hash_.push(']');
      return builder_.array_end(ctx);
    }
    bool first = true;
    while (true) {
      if (hashing_ && !first) hash_.push(',');
      first = false;
      builder_.array_push(ctx, parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      if (hashing_) hash_.push(']');
      return builder_.array_end(ctx);
    }
  }

  /// Decoded string contents.  The view aliases the source text when the
  /// string has no escapes, the parser's scratch buffer otherwise; either
  /// way it is only valid until the next lexer step, so builders copy.
  std::string_view parse_string() {
    expect('"');
    const std::size_t start = pos_;
    // Fast scan: most strings (keys in particular) contain no escapes and
    // no control characters, so the common case is one pass + zero copies.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        const std::string_view plain = text_.substr(start, pos_ - start);
        ++pos_;
        return plain;
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      ++pos_;
    }
    // Slow path: copy the clean prefix, then decode escape by escape.
    scratch_.assign(text_.data() + start, pos_ - start);
    while (true) {
      if (at_end()) fail("unterminated string");
      const char c = advance();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        // Bulk-copy the clean run that starts at this character.
        const std::size_t run = pos_ - 1;
        while (pos_ < text_.size()) {
          const char d = text_[pos_];
          if (d == '"' || d == '\\' || static_cast<unsigned char>(d) < 0x20) break;
          ++pos_;
        }
        scratch_.append(text_.data() + run, pos_ - run);
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"':
          scratch_.push_back('"');
          break;
        case '\\':
          scratch_.push_back('\\');
          break;
        case '/':
          scratch_.push_back('/');
          break;
        case 'b':
          scratch_.push_back('\b');
          break;
        case 'f':
          scratch_.push_back('\f');
          break;
        case 'n':
          scratch_.push_back('\n');
          break;
        case 'r':
          scratch_.push_back('\r');
          break;
        case 't':
          scratch_.push_back('\t');
          break;
        case 'u':
          append_unicode_escape(scratch_);
          break;
        default:
          fail("invalid escape sequence");
      }
    }
    return scratch_;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    // Surrogate pair handling for characters outside the BMP.
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // Encode as UTF-8.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  typename Builder::Value parse_number() {
    const std::size_t start = pos_;
    const char* const data = text_.data();
    if (!at_end() && data[pos_] == '-') ++pos_;
    const auto digit = [&](std::size_t i) {
      return i < text_.size() && data[i] >= '0' && data[i] <= '9';
    };
    if (!digit(pos_)) {
      fail("invalid number");
    }
    // Integer part: a single 0, or a nonzero digit followed by digits.
    if (data[pos_] == '0') {
      ++pos_;
    } else {
      while (digit(pos_)) ++pos_;
    }
    // Fraction.
    if (pos_ < text_.size() && data[pos_] == '.') {
      ++pos_;
      if (!digit(pos_)) {
        fail("digit expected after decimal point");
      }
      while (digit(pos_)) ++pos_;
    }
    // Exponent.
    if (pos_ < text_.size() && (data[pos_] == 'e' || data[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (data[pos_] == '+' || data[pos_] == '-')) ++pos_;
      if (!digit(pos_)) {
        fail("digit expected in exponent");
      }
      while (digit(pos_)) ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(data + start, data + pos_, value);
    if (ec != std::errc{} || ptr != data + pos_) {
      fail("number out of range");
    }
    if (hashing_) {
      char buffer[kNumberBufferSize];
      hash_.append(buffer, format_number_to(buffer, value));
    }
    return builder_.number(value);
  }

  std::string_view text_;
  JsonParseOptions options_;
  Builder& builder_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string scratch_;  ///< escape-decoding buffer, reused across strings
  bool hashing_ = false;
  HashSink hash_;
};

}  // namespace greenfpga::io::detail

#endif  // GREENFPGA_IO_JSON_DETAIL_HPP
