#ifndef GREENFPGA_SCENARIO_CACHE_STORE_HPP
#define GREENFPGA_SCENARIO_CACHE_STORE_HPP

/// \file cache_store.hpp
/// Content-addressed disk persistence for cached scenario results.
///
/// `greenfpga serve` keeps its hot set in the in-memory `ResultCache`; a
/// restart used to start cold.  The store writes each cached result to
/// `<dir>/<hex64-fnv1a-of-key>.json` so a restarted daemon re-answers a
/// previously evaluated spec from disk (and re-promotes it to memory)
/// instead of re-running the engine.
///
/// The file name is only the 64-bit *fingerprint* of the content key
/// (io::content_digest's hex), which is not collision-proof, so every
/// file embeds the full key and `load` verifies it: a fingerprint
/// collision -- like a truncated, corrupted or hand-edited file -- is
/// treated as a miss, never as a wrong answer.  Bodies are the canonical
/// result bytes (`write_result`), so a disk hit is byte-identical to a fresh
/// evaluation.  Writes go to a unique temp file and rename into place
/// (atomic within one directory): readers never observe a half-written
/// entry, even across a crash.
///
/// The store is append-only from the daemon's point of view: eviction
/// from the memory tier does not unlink files (disk is the durable tier;
/// operators prune the directory like any cache dir).  All methods are
/// thread-safe and never throw -- persistence is an optimization, so IO
/// failures degrade to miss / not-saved.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace greenfpga::scenario {

struct ScenarioResult;

class CacheStore {
 public:
  /// Persist under `directory`, created (with parents) if absent.
  /// Throws std::runtime_error when the directory cannot be created or
  /// is not writable -- a misconfigured `--cache-dir` should fail at
  /// startup, not degrade silently forever.
  explicit CacheStore(std::string directory);

  /// Where `key`'s entry lives (exposed for tests and operators).
  [[nodiscard]] std::string path_for(const std::string& key) const;

  /// Write `key -> result` durably.  Best-effort: returns false (and
  /// leaves no partial file visible) on any IO failure.
  bool save(const std::string& key, const ScenarioResult& result) noexcept;

  /// The stored result for `key`, or nullptr when absent, unreadable,
  /// corrupt, or recorded under a different full key (fingerprint
  /// collision).  Never throws.
  [[nodiscard]] std::shared_ptr<const ScenarioResult> load(
      const std::string& key) const noexcept;

  [[nodiscard]] const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
  /// Distinguishes concurrent writers' temp files for the same key.
  mutable std::atomic<std::uint64_t> temp_sequence_{0};
};

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_CACHE_STORE_HPP
