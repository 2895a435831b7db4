/// \file result_cache.cpp
/// The sharded content-addressed LRU over immutable scenario results.

#include "scenario/result_cache.hpp"

#include <stdexcept>
#include <utility>

#include "io/hash.hpp"
#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::scenario {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards) {
  if (capacity == 0) {
    capacity = 1;
  }
  if (shards == 0) {
    shards = 1;
  }
  shard_capacity_ = (capacity + shards - 1) / shards;  // ceil: never 0
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) {
  return *shards_[io::fnv1a64(key) % shards_.size()];
}

std::shared_ptr<const ScenarioResult> ResultCache::lookup(
    const std::string& key, std::shared_ptr<const io::ByteSegments>* bytes) {
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // freshen
      if (bytes != nullptr) {
        *bytes = it->second->bytes;
      }
      return it->second->result;
    }
  }
  // Memory miss: consult the disk tier with no lock held -- store IO is
  // file IO and must never serialize the shard.
  if (store_ != nullptr) {
    if (std::shared_ptr<const ScenarioResult> loaded = store_->load(key)) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.hits;
      ++shard.disk_hits;
      insert_locked(shard, key, loaded);
      return loaded;
    }
  }
  const std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;
  return nullptr;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const ScenarioResult> result) {
  if (!result) {
    throw std::invalid_argument("ResultCache::insert: null result");
  }
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    insert_locked(shard, key, result);
  }
  if (store_ != nullptr) {
    store_->save(key, *result);  // best-effort; outside the lock
  }
}

void ResultCache::attach_bytes(const std::string& key,
                               std::shared_ptr<const io::ByteSegments> bytes) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(std::string_view(key));
  if (it != shard.index.end() && it->second->bytes == nullptr) {
    it->second->bytes = std::move(bytes);
  }
}

void ResultCache::insert_locked(Shard& shard, const std::string& key,
                                std::shared_ptr<const ScenarioResult> result) {
  const auto it = shard.index.find(std::string_view(key));
  if (it != shard.index.end()) {
    // Same content key => same deterministic result (and bytes); refresh
    // recency only.
    it->second->result = std::move(result);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(result), nullptr});
  shard.index.emplace(std::string_view(shard.lru.front().key), shard.lru.begin());
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(std::string_view(shard.lru.back().key));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->index.clear();
    shard->lru.clear();
  }
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats stats;
  stats.capacity = shard_capacity_ * shards_.size();
  stats.shards = shards_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.disk_hits += shard->disk_hits;
    stats.size += shard->lru.size();
  }
  return stats;
}

}  // namespace greenfpga::scenario
