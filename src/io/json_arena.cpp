/// \file json_arena.cpp
/// Arena-backed JSON DOM: builder policy for the shared parser core,
/// bump allocator, canonical writer and facade materialization.

#include "io/json_arena.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

#include "io/hash.hpp"
#include "io/json_detail.hpp"
#include "io/json_writer.hpp"

namespace greenfpga::io {

namespace {

[[nodiscard]] const char* type_name(JsonNode::Type t) {
  switch (t) {
    case JsonNode::Type::null:
      return "null";
    case JsonNode::Type::boolean:
      return "boolean";
    case JsonNode::Type::number:
      return "number";
    case JsonNode::Type::string:
      return "string";
    case JsonNode::Type::array:
      return "array";
    case JsonNode::Type::object:
      return "object";
  }
  return "unknown";
}

[[noreturn]] void throw_type_error(JsonNode::Type expected, JsonNode::Type actual) {
  throw JsonError(std::string("JSON type error: expected ") + type_name(expected) + ", got " +
                  type_name(actual));
}

[[nodiscard]] std::uint32_t checked_count(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw JsonError("JSON value exceeds the arena node count limit");
  }
  return static_cast<std::uint32_t>(n);
}

}  // namespace

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

void* JsonDocument::allocate(std::size_t bytes, std::size_t alignment) {
  if (!chunks_.empty()) {
    Chunk& chunk = chunks_.back();
    const std::size_t aligned = (chunk.used + alignment - 1) & ~(alignment - 1);
    if (aligned + bytes <= chunk.capacity) {
      chunk.used = aligned + bytes;
      return chunk.data.get() + aligned;
    }
  }
  // Geometric chunk growth, capped so a huge document does not overshoot
  // its footprint by more than ~1 MiB.  operator new[] storage is aligned
  // for every fundamental type, so offset 0 needs no fixup.
  constexpr std::size_t kMinChunk = std::size_t{4} << 10;
  constexpr std::size_t kMaxChunk = std::size_t{1} << 20;
  std::size_t capacity =
      chunks_.empty() ? kMinChunk : std::min(chunks_.back().capacity * 2, kMaxChunk);
  capacity = std::max(capacity, bytes);
  Chunk chunk;
  chunk.data = std::make_unique<char[]>(capacity);
  chunk.capacity = capacity;
  chunk.used = bytes;
  chunks_.push_back(std::move(chunk));
  return chunks_.back().data.get();
}

std::string_view JsonDocument::copy_bytes(std::string_view bytes) {
  if (bytes.empty()) return {};
  char* stored = static_cast<char*>(allocate(bytes.size(), 1));
  std::memcpy(stored, bytes.data(), bytes.size());
  return {stored, bytes.size()};
}

std::size_t JsonDocument::arena_bytes() const {
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) {
    total += chunk.capacity;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Builder policy for the shared parser core
// ---------------------------------------------------------------------------

/// Grows JsonNode trees into a JsonDocument's arena.  Children accumulate
/// on shared scratch stacks (`nodes_`, `members_`) and are copied into an
/// exactly-sized arena span when their container closes; keys are
/// interned so a grid result with thousands of identical member names
/// stores each name once.
class ArenaBuilder {
 public:
  explicit ArenaBuilder(JsonDocument& doc) : doc_(doc) {}

  using Value = JsonNode;

  struct ArrayCtx {
    std::size_t mark;  ///< nodes_ size at '['
  };
  struct ObjectCtx {
    std::size_t mark;     ///< members_ size at '{'
    std::size_t pending;  ///< index the next member_value fills
  };

  JsonNode null_value() { return JsonNode{}; }

  JsonNode boolean(bool b) {
    JsonNode node;
    node.type = JsonNode::Type::boolean;
    node.payload.boolean = b;
    return node;
  }

  JsonNode number(double n) {
    JsonNode node;
    node.type = JsonNode::Type::number;
    node.payload.number = n;
    return node;
  }

  JsonNode string_value(std::string_view s) {
    const std::string_view stored = doc_.copy_bytes(s);
    JsonNode node;
    node.type = JsonNode::Type::string;
    node.count = checked_count(s.size());
    node.payload.string = stored.data();
    return node;
  }

  ArrayCtx array_begin() { return {nodes_.size()}; }

  void array_push(ArrayCtx&, JsonNode value) { nodes_.push_back(value); }

  JsonNode array_end(ArrayCtx& ctx) {
    const std::size_t n = nodes_.size() - ctx.mark;
    JsonNode node;
    node.type = JsonNode::Type::array;
    node.count = checked_count(n);
    node.payload.elements = nullptr;
    if (n != 0) {
      auto* span = static_cast<JsonNode*>(
          doc_.allocate(n * sizeof(JsonNode), alignof(JsonNode)));
      std::memcpy(span, nodes_.data() + ctx.mark, n * sizeof(JsonNode));
      node.payload.elements = span;
      nodes_.resize(ctx.mark);
    }
    return node;
  }

  ObjectCtx object_begin() { return {members_.size(), 0}; }

  detail::MemberOrder member_key(ObjectCtx& ctx, std::string_view key) {
    if (members_.size() == ctx.mark || members_.back().key < key) {
      ctx.pending = members_.size();
      members_.push_back(JsonMember{intern(key), JsonNode{}});
      return detail::MemberOrder::appended;
    }
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(ctx.mark);
    const auto it = std::lower_bound(
        first, members_.end(), key,
        [](const JsonMember& m, std::string_view k) { return m.key < k; });
    if (it != members_.end() && it->key == key) {
      return detail::MemberOrder::duplicate;
    }
    ctx.pending = static_cast<std::size_t>(it - members_.begin());
    members_.insert(it, JsonMember{intern(key), JsonNode{}});
    return detail::MemberOrder::inserted;
  }

  void member_value(ObjectCtx& ctx, JsonNode value) { members_[ctx.pending].value = value; }

  JsonNode object_end(ObjectCtx& ctx) {
    const std::size_t n = members_.size() - ctx.mark;
    JsonNode node;
    node.type = JsonNode::Type::object;
    node.count = checked_count(n);
    node.payload.members = nullptr;
    if (n != 0) {
      auto* span = static_cast<JsonMember*>(
          doc_.allocate(n * sizeof(JsonMember), alignof(JsonMember)));
      std::memcpy(span, members_.data() + ctx.mark, n * sizeof(JsonMember));
      node.payload.members = span;
      members_.resize(ctx.mark);
    }
    return node;
  }

 private:
  std::string_view intern(std::string_view key) {
    const auto it = interned_.find(key);
    if (it != interned_.end()) return *it;
    const std::string_view stored = doc_.copy_bytes(key);
    interned_.insert(stored);
    return stored;
  }

  JsonDocument& doc_;
  std::vector<JsonNode> nodes_;
  std::vector<JsonMember> members_;
  std::unordered_set<std::string_view> interned_;
};

JsonDocument parse_json_arena(std::string_view text, JsonParseOptions options,
                              bool hash_canonical) {
  JsonDocument doc;
  ArenaBuilder builder(doc);
  detail::ParserCore<ArenaBuilder> parser(text, options, builder, hash_canonical);
  doc.root_ = parser.parse_document();
  doc.parse_digest_ = parser.canonical_digest();
  return doc;
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

bool JsonView::as_bool() const {
  if (!is_bool()) throw_type_error(Type::boolean, type());
  return node_->payload.boolean;
}

double JsonView::as_number() const {
  if (!is_number()) throw_type_error(Type::number, type());
  return node_->payload.number;
}

double JsonView::as_number_total() const {
  if (is_string()) {
    const std::string_view s = as_string();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  if (!is_number()) throw_type_error(Type::number, type());
  return node_->payload.number;
}

std::string_view JsonView::as_string() const {
  if (!is_string()) throw_type_error(Type::string, type());
  return {node_->payload.string, node_->count};
}

std::size_t JsonView::size() const {
  if (is_array() || is_object()) return node_->count;
  throw JsonError("size() requires a JSON array or object");
}

std::span<const JsonMember> JsonView::members() const {
  if (!is_object()) throw_type_error(Type::object, type());
  return {node_->payload.members, node_->count};
}

std::span<const JsonNode> JsonView::elements() const {
  if (!is_array()) throw_type_error(Type::array, type());
  return {node_->payload.elements, node_->count};
}

const JsonMember* JsonView::find(std::string_view key) const {
  const std::span<const JsonMember> span = members();
  const auto it = std::lower_bound(
      span.begin(), span.end(), key,
      [](const JsonMember& m, std::string_view k) { return m.key < k; });
  if (it != span.end() && it->key == key) return &*it;
  return nullptr;
}

JsonView JsonView::at(std::string_view key) const {
  const JsonMember* member = find(key);
  if (member == nullptr) {
    throw JsonError("JSON object has no member \"" + std::string(key) + "\"");
  }
  return JsonView(&member->value);
}

JsonView JsonView::at(std::size_t index) const {
  const std::span<const JsonNode> span = elements();
  if (index >= span.size()) {
    throw JsonError("JSON array index " + std::to_string(index) + " out of range (size " +
                    std::to_string(span.size()) + ")");
  }
  return JsonView(&span[index]);
}

bool JsonView::contains(std::string_view key) const {
  return is_object() && find(key) != nullptr;
}

double JsonView::number_or(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

// ---------------------------------------------------------------------------
// Writer and facade materialization
// ---------------------------------------------------------------------------

namespace {

void write_node(const JsonNode& node, JsonWriter& out) {
  switch (node.type) {
    case JsonNode::Type::null:
      out.null();
      return;
    case JsonNode::Type::boolean:
      out.boolean(node.payload.boolean);
      return;
    case JsonNode::Type::number:
      out.number(node.payload.number);
      return;
    case JsonNode::Type::string:
      out.string(std::string_view(node.payload.string, node.count));
      return;
    case JsonNode::Type::array:
      out.begin_array();
      for (std::uint32_t i = 0; i < node.count; ++i) {
        write_node(node.payload.elements[i], out);
      }
      out.end_array();
      return;
    case JsonNode::Type::object:
      out.begin_object();
      for (std::uint32_t i = 0; i < node.count; ++i) {
        const JsonMember& member = node.payload.members[i];
        out.runtime_key(member.key);
        write_node(member.value, out);
      }
      out.end_object();
      return;
  }
}

[[nodiscard]] Json node_to_json(const JsonNode& node) {
  switch (node.type) {
    case JsonNode::Type::null:
      return Json(nullptr);
    case JsonNode::Type::boolean:
      return Json(node.payload.boolean);
    case JsonNode::Type::number:
      return Json(node.payload.number);
    case JsonNode::Type::string:
      return Json(std::string(node.payload.string, node.count));
    case JsonNode::Type::array: {
      Json::Array elements;
      elements.reserve(node.count);
      for (std::uint32_t i = 0; i < node.count; ++i) {
        elements.push_back(node_to_json(node.payload.elements[i]));
      }
      return Json(std::move(elements));
    }
    case JsonNode::Type::object: {
      JsonObject::Storage members;
      members.reserve(node.count);
      for (std::uint32_t i = 0; i < node.count; ++i) {
        const JsonMember& member = node.payload.members[i];
        members.emplace_back(std::string(member.key), node_to_json(member.value));
      }
      // Arena members are already sorted by key.
      return Json(JsonObject::adopt_sorted(std::move(members)));
    }
  }
  return Json(nullptr);
}

}  // namespace

std::string JsonDocument::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

void JsonDocument::dump_to(std::string& out, int indent) const {
  JsonWriter writer(out, indent);
  write_node(root_, writer);
  writer.finish();
}

std::uint64_t JsonDocument::canonical_digest() const { return fnv1a64(dump(0)); }

Json JsonDocument::to_json() const { return node_to_json(root_); }

}  // namespace greenfpga::io
