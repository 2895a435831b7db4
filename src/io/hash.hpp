#ifndef GREENFPGA_IO_HASH_HPP
#define GREENFPGA_IO_HASH_HPP

/// \file hash.hpp
/// Content hashing for cache keys and fingerprints.
///
/// The result cache addresses entries by the canonical JSON bytes of what
/// was evaluated.  The full byte string is the collision-proof identity;
/// the 64-bit FNV-1a digest over those bytes is the compact *fingerprint*
/// surfaced to humans (stats endpoints, log lines) so two parties can
/// check "same spec?" without shipping the spec.  FNV-1a is not
/// cryptographic -- it fingerprints trusted content, it does not
/// authenticate untrusted content.

#include <cstdint>
#include <string>
#include <string_view>

namespace greenfpga::io {

/// FNV-1a 64 parameters, shared with the JSON parser's hash-while-parse
/// sink (src/io/json_detail.hpp) so every digest in the system agrees.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Incremental FNV-1a 64: feed bytes in any chunking, `digest()` equals
/// `fnv1a64` of the concatenation.
class Fnv1aHasher {
 public:
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      update(c);
    }
  }
  void update(char c) {
    hash_ = (hash_ ^ static_cast<unsigned char>(c)) * kFnv1aPrime;
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv1aOffset;
};

/// 64-bit FNV-1a over `bytes` (offset basis 14695981039346656037,
/// prime 1099511628211).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Fixed-width (16 digit) lowercase hex form of `value`.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// The human-readable digest of a content string:
/// `"fnv1a64:" + hex64(fnv1a64(bytes))`.
[[nodiscard]] std::string content_digest(std::string_view bytes);

/// `content_digest` when the 64-bit hash is already known (e.g. from
/// hash-while-parse/dump): same text, no re-hash of the bytes.
[[nodiscard]] std::string content_digest_of_hash(std::uint64_t hash);

}  // namespace greenfpga::io

#endif  // GREENFPGA_IO_HASH_HPP
