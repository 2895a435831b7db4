#ifndef GREENFPGA_IO_JSON_ARENA_HPP
#define GREENFPGA_IO_JSON_ARENA_HPP

/// \file json_arena.hpp
/// An immutable, arena-backed JSON DOM for read-mostly hot paths.
///
/// `parse_json_arena` parses with the same grammar, limits and error
/// messages as `parse_json`, but builds a `JsonDocument`: every node is a
/// 16-byte POD, every string (keys interned, values copied once) and
/// every member/element span lives in one monotonic arena owned by the
/// document.  No per-node heap allocation, no destructor walk -- tearing
/// down a million-node document is a handful of chunk frees.
///
/// Lifetime rules (the cost of the zero-copy design):
///
///   * `JsonView`, and every `std::string_view` obtained from one
///     (`as_string()`, member keys), point into the document's arena.
///     They are valid exactly as long as the owning `JsonDocument` is
///     alive, and dangle the moment it is destroyed.  Moving the document
///     is safe (chunk storage is stable under move); destroying it is not.
///   * The DOM is immutable.  To edit, materialize a mutable tree with
///     `to_json()` (which copies out of the arena, so the facade value
///     outlives the document freely).
///
/// Like `parse_json_hashed`, the arena parser can fingerprint the
/// canonical byte stream while parsing (`JsonDocument::parse_digest`).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"

namespace greenfpga::io {

struct JsonMember;

/// One immutable JSON value inside a `JsonDocument`.  16 bytes: tag,
/// element/member/byte count, and a payload that points back into the
/// document's arena for strings, arrays and objects.
struct JsonNode {
  enum class Type : std::uint8_t { null, boolean, number, string, array, object };

  Type type = Type::null;
  std::uint32_t count = 0;  ///< string bytes / array elements / object members
  union {
    bool boolean;
    double number;
    const char* string;         ///< `count` bytes, arena-owned, not 0-terminated
    const JsonNode* elements;   ///< `count` nodes, arena-owned
    const JsonMember* members;  ///< `count` members, sorted by key, arena-owned
  } payload = {.boolean = false};
};

/// An object member: interned key view plus the value node, both
/// arena-owned.  Members of one object are stored contiguously, sorted
/// by key (canonical dump order).
struct JsonMember {
  std::string_view key;
  JsonNode value;
};

/// A cheap, copyable cursor over one node of a `JsonDocument`.  Checked
/// accessors throw `JsonError` with the same messages as the `Json`
/// facade.  Valid only while the owning document is alive.
class JsonView {
 public:
  using Type = JsonNode::Type;

  explicit JsonView(const JsonNode* node) : node_(node) {}

  [[nodiscard]] Type type() const { return node_->type; }
  [[nodiscard]] bool is_null() const { return type() == Type::null; }
  [[nodiscard]] bool is_bool() const { return type() == Type::boolean; }
  [[nodiscard]] bool is_number() const { return type() == Type::number; }
  [[nodiscard]] bool is_string() const { return type() == Type::string; }
  [[nodiscard]] bool is_array() const { return type() == Type::array; }
  [[nodiscard]] bool is_object() const { return type() == Type::object; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// Number or the canonical non-finite string sentinel, as
  /// `Json::as_number_total`.
  [[nodiscard]] double as_number_total() const;
  [[nodiscard]] std::string_view as_string() const;

  /// Array elements / object members count; throws on scalars.
  [[nodiscard]] std::size_t size() const;

  /// Object member lookup (binary search); throws JsonError naming the
  /// missing key.
  [[nodiscard]] JsonView at(std::string_view key) const;
  /// Array element access with bounds check.
  [[nodiscard]] JsonView at(std::size_t index) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  [[nodiscard]] double number_or(std::string_view key, double fallback) const;

  /// Raw spans for iteration (object members are sorted by key).
  [[nodiscard]] std::span<const JsonMember> members() const;
  [[nodiscard]] std::span<const JsonNode> elements() const;

 private:
  [[nodiscard]] const JsonMember* find(std::string_view key) const;

  const JsonNode* node_;
};

/// An immutable parsed JSON document plus the arena that owns every node,
/// string and span in it.  Move-only; views stay valid across moves.
class JsonDocument {
 public:
  JsonDocument() = default;
  JsonDocument(JsonDocument&&) noexcept = default;
  JsonDocument& operator=(JsonDocument&&) noexcept = default;
  JsonDocument(const JsonDocument&) = delete;
  JsonDocument& operator=(const JsonDocument&) = delete;

  [[nodiscard]] JsonView root() const { return JsonView(&root_); }

  /// Canonical serialization, byte-identical to `Json::dump` of the
  /// equivalent facade value.
  [[nodiscard]] std::string dump(int indent = 2) const;
  void dump_to(std::string& out, int indent = 2) const;

  /// FNV-1a of the canonical compact dump (`dump(0)` bytes).
  [[nodiscard]] std::uint64_t canonical_digest() const;

  /// The hash-while-parse digest: present when hashing was requested at
  /// parse time and every object's keys arrived already sorted (then it
  /// equals `canonical_digest()` by construction).
  [[nodiscard]] std::optional<std::uint64_t> parse_digest() const { return parse_digest_; }

  /// Materialize a mutable `Json` tree (copies out of the arena; the
  /// result outlives the document).
  [[nodiscard]] Json to_json() const;

  /// Total bytes reserved by the arena chunks (observability/tests).
  [[nodiscard]] std::size_t arena_bytes() const;

 private:
  friend class ArenaBuilder;
  friend JsonDocument parse_json_arena(std::string_view, JsonParseOptions, bool);

  /// Bump-allocate `bytes` with `alignment` from the chunk list.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t alignment);
  /// Copy `bytes` into the arena and return the stable view.
  [[nodiscard]] std::string_view copy_bytes(std::string_view bytes);

  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  JsonNode root_{};
  std::optional<std::uint64_t> parse_digest_;
};

/// Parse into an arena document.  Same dialect, nesting cap and error
/// messages as `parse_json`.  With `hash_canonical`, the canonical-stream
/// digest is computed during the parse when key order permits
/// (`JsonDocument::parse_digest`).
[[nodiscard]] JsonDocument parse_json_arena(std::string_view text,
                                            JsonParseOptions options = {},
                                            bool hash_canonical = false);

}  // namespace greenfpga::io

#endif  // GREENFPGA_IO_JSON_ARENA_HPP
