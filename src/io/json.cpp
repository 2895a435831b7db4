/// \file json.cpp
/// RFC 8259 JSON value model plus the facade side of the shared parser
/// (src/io/json_detail.hpp) and writer (src/io/json_writer.hpp).

#include "io/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "io/hash.hpp"
#include "io/json_detail.hpp"
#include "io/json_writer.hpp"

namespace greenfpga::io {

namespace {

[[nodiscard]] const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::null:
      return "null";
    case Json::Type::boolean:
      return "boolean";
    case Json::Type::number:
      return "number";
    case Json::Type::string:
      return "string";
    case Json::Type::array:
      return "array";
    case Json::Type::object:
      return "object";
  }
  return "unknown";
}

[[noreturn]] void throw_type_error(Json::Type expected, Json::Type actual) {
  throw JsonError(std::string("JSON type error: expected ") + type_name(expected) + ", got " +
                  type_name(actual));
}

}  // namespace

Json Json::object(std::initializer_list<std::pair<const std::string, Json>> members) {
  // Sorted-unique insertion with first-occurrence-wins on duplicate keys,
  // matching the std::map initializer-list semantics this factory had.
  Object object;
  for (const auto& [key, value] : members) {
    if (!object.contains(key)) {
      object[key] = value;
    }
  }
  return Json(std::move(object));
}

Json Json::array(std::initializer_list<Json> elements) { return Json(Array(elements)); }

Json::Type Json::type() const {
  return static_cast<Type>(value_.index());
}

bool Json::as_bool() const {
  if (!is_bool()) throw_type_error(Type::boolean, type());
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) throw_type_error(Type::number, type());
  return std::get<double>(value_);
}

double Json::as_number_total() const {
  if (is_string()) {
    // The writer's non-finite encoding: JSON has no inf/nan literal, so
    // dump() emits these exact string sentinels in number position and
    // this accessor decodes them, keeping the *result* round-trip total.
    // Deliberately not part of as_number(): config/spec ingestion stays
    // strict, so untrusted input cannot smuggle non-finite values past
    // comparison-based validation.
    const std::string& s = std::get<std::string>(value_);
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  if (!is_number()) throw_type_error(Type::number, type());
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double n = as_number();
  // Range-check before casting: double-to-int64 conversion outside the
  // representable range (or of NaN) is undefined behaviour.  2^63 is
  // exactly representable as a double; the valid half-open range is
  // [-2^63, 2^63).
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(n >= -kTwo63 && n < kTwo63)) {
    throw JsonError("JSON number is not an integer: " + std::to_string(n));
  }
  const auto i = static_cast<std::int64_t>(n);
  if (static_cast<double>(i) != n) {
    throw JsonError("JSON number is not an integer: " + std::to_string(n));
  }
  return i;
}

const std::string& Json::as_string() const {
  if (!is_string()) throw_type_error(Type::string, type());
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) throw_type_error(Type::array, type());
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) throw_type_error(Type::array, type());
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) throw_type_error(Type::object, type());
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) throw_type_error(Type::object, type());
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  return as_object().at(key);
}

const Json& Json::at(std::size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) {
    throw JsonError("JSON array index " + std::to_string(index) + " out of range (size " +
                    std::to_string(arr.size()) + ")");
  }
  return arr[index];
}

bool Json::contains(std::string_view key) const {
  return is_object() && as_object().contains(key);
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw JsonError("size() requires a JSON array or object");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    value_ = Object{};
  }
  return as_object()[key];
}

double Json::number_or(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

void Json::push_back(Json element) {
  if (is_null()) {
    value_ = Array{};
  }
  as_array().push_back(std::move(element));
}

// ---------------------------------------------------------------------------
// Number formatting
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// The canonical formatter proper; `format_number_to` memoises it.
std::size_t format_number_uncached(char* buffer, double n) {
  if (!std::isfinite(n)) {
    // The canonical non-finite text tokens (quoted by the JSON writer,
    // bare in CSV); parse back via Json::as_number_total.
    if (std::isnan(n)) {
      std::memcpy(buffer, "nan", 3);
      return 3;
    }
    if (n > 0.0) {
      std::memcpy(buffer, "inf", 3);
      return 3;
    }
    std::memcpy(buffer, "-inf", 4);
    return 4;
  }
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    // Integral values print without a fraction for readability.
    const auto [end, ec] =
        std::to_chars(buffer, buffer + kNumberBufferSize, n, std::chars_format::fixed);
    return static_cast<std::size_t>(end - buffer);
  }
  // The historical format is printf %g at the smallest precision in
  // [6, 17] that round-trips.  Reproduce it from one to_chars call:
  // shortest-round-trip scientific form gives the correctly rounded
  // digit string D and decimal exponent X, and for len(D) >= 6 the %g
  // probe loop's winner is exactly %.len(D)g -- whose presentation
  // (fixed vs scientific by the exponent rule, trailing zeros stripped)
  // is made from the to_chars text in place below, byte-for-byte.
  // len(D) < 6 means %.6g was the first probe and always round-trips, so
  // one snprintf settles it (its 6 significant digits of the exact
  // expansion are NOT the shortest digits -- e.g. 5e-324 prints as
  // 4.94066e-324).
  const char* const end =
      std::to_chars(buffer, buffer + kNumberBufferSize, n, std::chars_format::scientific)
          .ptr;
  // `d` is the first digit of "d[.ddd]e[+-]XX[X]"; the exponent is the
  // last 2-3 digits, so 'e' is found from the end.
  char* const d = buffer + (n < 0.0 ? 1 : 0);
  const char* e = end - 4;
  if (*e != 'e') --e;
  // Digit count: the leading digit plus the fraction after the point.
  const int len = e == d + 1 ? 1 : static_cast<int>(e - d) - 1;
  if (len < 6) {
    return static_cast<std::size_t>(
        std::snprintf(buffer, kNumberBufferSize, "%.6g", n));
  }
  int exp10 = 0;
  for (const char* x = e + 2; x < end; ++x) exp10 = exp10 * 10 + (*x - '0');
  if (e[1] == '-') exp10 = -exp10;
  if (exp10 < -4 || exp10 >= len) {
    // Scientific presentation: to_chars already wrote %e's d.ddde±XX
    // (exponent at least two digits).
    return static_cast<std::size_t>(end - buffer);
  }
  if (exp10 < 0) {
    // 0.00ddd: close the digits up over the point, then shift them right
    // past "0." and the leading zeros.
    const int zeros = -exp10 - 1;
    std::memmove(d + 1, d + 2, static_cast<std::size_t>(len - 1));
    std::memmove(d + 2 + zeros, d, static_cast<std::size_t>(len));
    d[0] = '0';
    d[1] = '.';
    std::memset(d + 2, '0', static_cast<std::size_t>(zeros));
    return static_cast<std::size_t>(d + 2 + zeros + len - buffer);
  }
  // Fixed presentation (X < len(D)): move the point right past the
  // integer digits, dropping it when every digit is an integer digit.
  const int int_digits = exp10 + 1;
  for (int i = 1; i < int_digits; ++i) d[i] = d[i + 1];
  if (int_digits == len) {
    return static_cast<std::size_t>(d + len - buffer);
  }
  d[int_digits] = '.';
  return static_cast<std::size_t>(d + len + 1 - buffer);
}

/// One memo slot: a tag naming the double it holds, and that double's
/// canonical bytes (the bytes past its length are stale).
///
/// The tag is the low kTagBits bits of the double's `number_memo_hash`
/// with the form's length above them.  The hash is a bijection and the
/// slot index is its top bits, so within one slot the low bits alone name the
/// double, and the top bits are free to carry the length: a lookup is one
/// xor and a mask test, with no scan for the end of the bytes.  An empty
/// slot's tag is 0, whose length reads 0: a miss.
struct NumberMemoSlot {
  std::uint64_t tag = 0;
  char text[kMaxNumberBytes] = {};
};
static_assert(sizeof(NumberMemoSlot) == 32);

constexpr int kTagBits = 64 - kNumberMemoBits;
constexpr std::uint64_t kTagMask = (std::uint64_t{1} << kTagBits) - 1;
static_assert(kMaxNumberBytes < (std::size_t{1} << kNumberMemoBits));

/// Per-thread, so pool workers writing chunks never share a slot.
thread_local NumberMemoSlot number_memo[kNumberMemoSlots];

/// The slot's text length, or 0 when it does not hold the double whose
/// hash is `hash`.
[[nodiscard]] std::size_t memo_hit(const NumberMemoSlot& slot, std::uint64_t hash) {
  const std::uint64_t diff = slot.tag ^ (hash & kTagMask);
  return (diff & kTagMask) == 0 ? static_cast<std::size_t>(diff >> kTagBits) : 0;
}

}  // namespace

std::size_t format_number_to(char* buffer, double n) {
  const std::uint64_t hash = number_memo_hash(std::bit_cast<std::uint64_t>(n));
  NumberMemoSlot& slot = number_memo[hash >> kTagBits];
  if (const std::size_t size = memo_hit(slot, hash)) {
    // One fixed-size copy of the whole text field: the bytes past the
    // length land where `buffer` is scratch.
    std::memcpy(buffer, slot.text, kMaxNumberBytes);
    return size;
  }
  const std::size_t size = format_number_uncached(buffer, n);
  if (size <= kMaxNumberBytes) {
    slot.tag = (hash & kTagMask) | (static_cast<std::uint64_t>(size) << kTagBits);
    std::memcpy(slot.text, buffer, size);
  }
  return size;
}

std::string_view memoised_number(double n) {
  const std::uint64_t hash = number_memo_hash(std::bit_cast<std::uint64_t>(n));
  const NumberMemoSlot& slot = number_memo[hash >> kTagBits];
  return {slot.text, memo_hit(slot, hash)};
}

}  // namespace detail

std::string format_number(double n) {
  char buffer[detail::kNumberBufferSize];
  return std::string(buffer, detail::format_number_to(buffer, n));
}

// ---------------------------------------------------------------------------
// Parser (facade side of the shared core)
// ---------------------------------------------------------------------------

namespace {

/// Builds mutable `Json` values from the shared parser core.  Each open
/// container collects its entries in a scratch vector kept per nesting
/// level and reused by every container at that level, so a parse stops
/// regrowing vectors once its first few containers have been read; a
/// finished container moves out into a vector of exactly its size.
/// Object members accumulate in sorted order: canonical input (keys
/// already sorted) appends in O(1); out-of-order keys pay one mid-vector
/// insert.
struct FacadeBuilder {
  using Value = Json;

  struct ArrayCtx {
    std::size_t level;  ///< index into `arrays`
  };
  struct ObjectCtx {
    std::size_t level;        ///< index into `objects`
    std::size_t pending = 0;  ///< index the next member_value fills
  };

  std::vector<Json::Array> arrays;
  std::size_t array_depth = 0;
  std::vector<JsonObject::Storage> objects;
  std::size_t object_depth = 0;

  Json null_value() { return Json(nullptr); }
  Json boolean(bool b) { return Json(b); }
  Json number(double n) { return Json(n); }
  Json string_value(std::string_view s) { return Json(std::string(s)); }

  ArrayCtx array_begin() {
    if (array_depth == arrays.size()) {
      arrays.emplace_back();
    }
    return {array_depth++};
  }
  void array_push(ArrayCtx& ctx, Json value) { arrays[ctx.level].push_back(std::move(value)); }
  Json array_end(ArrayCtx& ctx) {
    Json::Array& scratch = arrays[ctx.level];
    Json::Array elements(std::make_move_iterator(scratch.begin()),
                         std::make_move_iterator(scratch.end()));
    scratch.clear();
    --array_depth;
    return Json(std::move(elements));
  }

  ObjectCtx object_begin() {
    if (object_depth == objects.size()) {
      objects.emplace_back();
    }
    return {object_depth++};
  }

  detail::MemberOrder member_key(ObjectCtx& ctx, std::string_view key) {
    JsonObject::Storage& members = objects[ctx.level];
    if (members.empty() || std::string_view(members.back().first) < key) {
      ctx.pending = members.size();
      members.emplace_back(std::string(key), Json());
      return detail::MemberOrder::appended;
    }
    const auto it = std::lower_bound(
        members.begin(), members.end(), key,
        [](const JsonObject::Member& m, std::string_view k) {
          return std::string_view(m.first) < k;
        });
    if (it != members.end() && it->first == key) {
      return detail::MemberOrder::duplicate;
    }
    ctx.pending = static_cast<std::size_t>(it - members.begin());
    members.emplace(it, std::string(key), Json());
    return detail::MemberOrder::inserted;
  }

  void member_value(ObjectCtx& ctx, Json value) {
    objects[ctx.level][ctx.pending].second = std::move(value);
  }

  Json object_end(ObjectCtx& ctx) {
    JsonObject::Storage& scratch = objects[ctx.level];
    JsonObject::Storage members(std::make_move_iterator(scratch.begin()),
                                std::make_move_iterator(scratch.end()));
    scratch.clear();
    --object_depth;
    return Json(JsonObject::adopt_sorted(std::move(members)));
  }
};

}  // namespace

Json parse_json(std::string_view text, JsonParseOptions options) {
  FacadeBuilder builder;
  detail::ParserCore<FacadeBuilder> parser(text, options, builder, /*hash_canonical=*/false);
  return parser.parse_document();
}

ParsedJson parse_json_hashed(std::string_view text, JsonParseOptions options) {
  FacadeBuilder builder;
  detail::ParserCore<FacadeBuilder> parser(text, options, builder, /*hash_canonical=*/true);
  Json value = parser.parse_document();
  return ParsedJson{std::move(value), parser.canonical_digest()};
}

Json parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw JsonError("cannot open JSON file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_json(buffer.str(), JsonParseOptions{.allow_comments = true});
  } catch (const JsonError& error) {
    // Name the file: a batch over dozens of specs would otherwise report
    // a bare line:column with no hint of which input is malformed.
    throw JsonError(path + ": " + error.what());
  }
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  std::string text;
  value.dump_to(text, indent);
  text.push_back('\n');
  write_json_text(path, text);
}

void write_json_text(const std::string& path, std::string_view text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw JsonError("cannot write JSON file: " + path);
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// ---------------------------------------------------------------------------
// Writer (the DOM walk lives in JsonWriter::json)
// ---------------------------------------------------------------------------

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

void Json::dump_to(std::string& out, int indent) const {
  JsonWriter writer(out, indent);
  writer.json(*this);
  writer.finish();
}

std::uint64_t Json::dump_to_hashed(std::string& out, int indent) const {
  const std::size_t start = out.size();
  dump_to(out, indent);
  return fnv1a64(std::string_view(out).substr(start));
}

std::uint64_t Json::canonical_digest() const { return fnv1a64(dump(0)); }

}  // namespace greenfpga::io
