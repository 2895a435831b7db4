/// \file json.cpp
/// RFC 8259 JSON value model plus the facade side of the shared parser
/// (src/io/json_detail.hpp) and writer (src/io/json_writer.hpp).

#include "io/json.hpp"

#include <algorithm>
#include <cmath>
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
