#ifndef GREENFPGA_SCENARIO_RESULT_CACHE_HPP
#define GREENFPGA_SCENARIO_RESULT_CACHE_HPP

/// \file result_cache.hpp
/// A thread-safe, content-addressed, sharded LRU cache of scenario
/// results, with an optional disk tier.
///
/// Operators re-ask the same lifecycle-CFP questions continuously with
/// slightly varying parameters; a long-lived process (`greenfpga serve`, a
/// batch over a manifest with repeated specs) should evaluate each
/// distinct question once.  The cache key is the *content* of the
/// evaluation -- the canonical JSON of the validated spec (which embeds
/// the full model suite) plus the resolved platform chips, built by
/// `Engine::cache_key` -- so two requests hit the same entry exactly when
/// the engine would compute byte-identical results for them.  Entries are
/// immutable `shared_ptr<const ScenarioResult>`s: readers keep their
/// snapshot alive even if the entry is evicted mid-use.
///
/// The key space is split across `shards` independent LRU shards (FNV-1a
/// digest of the key, modulo shard count), each with its own mutex, so
/// concurrent serve workers contend only when they touch the same shard.
/// One shard (the default) is plain LRU with globally exact recency;
/// with N shards, capacity and recency are per-shard (total capacity is
/// split evenly, rounding up).  Eviction counters and occupancy are
/// aggregated across shards for `GET /v1/stats`.
///
/// An optional `CacheStore` adds a disk tier: inserts are persisted,
/// and a memory miss consults the store before reporting a miss -- a
/// disk hit re-promotes the entry to memory and counts as a hit (plus
/// `disk_hits`).  Store IO runs *outside* every shard lock, so a slow
/// disk never serializes the memory tier.
///
/// An entry can also hold its result's canonical `result_document`
/// bytes, attached once by whoever first renders them (the serve
/// `/v1/run` handler), so a repeat request streams them back without
/// rendering again.  They are the writer's own buffers
/// (`result_segments`), kept uncopied and shrunk to fit.  Entries
/// inserted by `run_batch` or promoted from disk start without bytes;
/// evicting an entry frees its bytes with it.
/// Bytes never reach the store, whose format is the result alone.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/byte_segments.hpp"

namespace greenfpga::scenario {

struct ScenarioResult;
class CacheStore;

/// Monotonic cache counters plus the current occupancy, aggregated over
/// shards (each shard snapshots consistently under its own lock).
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_hits = 0;  ///< subset of hits served from the store
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::size_t shards = 1;
};

/// Content-addressed LRU over immutable scenario results.  Thread-safe.
class ResultCache {
 public:
  /// `capacity` is the maximum total entry count (>= 1 enforced; the
  /// cache would otherwise be an expensive way to spell "never hit"),
  /// split evenly across `shards` (>= 1 enforced) rounding up -- so the
  /// effective total is `ceil(capacity / shards) * shards`.
  explicit ResultCache(std::size_t capacity = 1024, std::size_t shards = 1);

  /// Attach (or detach, with nullptr) a disk tier.  Not synchronized
  /// with concurrent operations: attach before sharing the cache across
  /// threads.  The store must outlive the cache.
  void attach_store(CacheStore* store) { store_ = store; }

  /// The cached result for `key`, or nullptr.  Counts a hit or a miss and
  /// freshens the entry's LRU position.  On a memory miss with a store
  /// attached, a disk hit re-promotes the entry and counts as a hit.
  /// A non-null `bytes` receives the entry's attached canonical bytes
  /// (nullptr on a miss or when none are attached yet).
  [[nodiscard]] std::shared_ptr<const ScenarioResult> lookup(
      const std::string& key, std::shared_ptr<const io::ByteSegments>* bytes = nullptr);

  /// Insert (or refresh) `key -> result`, evicting the least recently
  /// used entry of the key's shard when over capacity.  `result` must not
  /// be null.  Persisted to the store when one is attached (best-effort,
  /// outside the shard lock).
  void insert(const std::string& key, std::shared_ptr<const ScenarioResult> result);

  /// Attach the canonical bytes of `key`'s result to its live entry,
  /// unless bytes are already attached or the entry is gone.  Counts no
  /// hit or miss, keeps the LRU position, and writes nothing to the store.
  void attach_bytes(const std::string& key, std::shared_ptr<const io::ByteSegments> bytes);

  /// Drop every in-memory entry (counters are preserved: they are
  /// lifetime totals).  Disk entries are untouched.
  void clear();

  [[nodiscard]] ResultCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const ScenarioResult> result;
    std::shared_ptr<const io::ByteSegments> bytes;  ///< null until attached
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    /// Views each entry's own `key`: list nodes are stable, so a view
    /// lives exactly as long as its node, and each key is stored once.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t disk_hits = 0;
  };

  [[nodiscard]] Shard& shard_for(const std::string& key);

  /// Insert/refresh under `shard.mutex` (already held by the caller).
  void insert_locked(Shard& shard, const std::string& key,
                     std::shared_ptr<const ScenarioResult> result);

  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  CacheStore* store_ = nullptr;
};

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_RESULT_CACHE_HPP
