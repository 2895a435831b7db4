/// Tests for the content-addressed LRU result cache and its engine hook:
/// hit/miss/eviction determinism (a cached result is byte-identical to a
/// cold run), capacity-bound eviction order, batch dedup, sharded
/// counters staying exact, the disk tier promoting on memory miss,
/// attached result bytes (returned with a hit, freed with the entry,
/// never counted or persisted), and multi-threaded hammers (run under
/// the ASan+UBSan CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/hash.hpp"
#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::scenario {
namespace {

ScenarioSpec compare_spec(int app_count) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  spec.name = "cache test " + std::to_string(app_count);
  spec.schedule.app_count = app_count;
  return spec;
}

std::string canonical(const ScenarioResult& result) {
  return result_to_json(result).dump();
}

std::shared_ptr<const ScenarioResult> result_of(const ScenarioSpec& spec) {
  return std::make_shared<const ScenarioResult>(
      Engine(EngineOptions{.threads = 1}).run(spec));
}

TEST(ResultCache, MissThenHitWithCounters) {
  ResultCache cache(8);
  EXPECT_EQ(cache.lookup("k"), nullptr);
  cache.insert("k", result_of(compare_spec(1)));
  const std::shared_ptr<const ScenarioResult> hit = cache.lookup("k");
  ASSERT_NE(hit, nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(ResultCache, InsertRejectsNull) {
  ResultCache cache(2);
  EXPECT_THROW(cache.insert("k", nullptr), std::invalid_argument);
}

TEST(ResultCache, CapacityBoundEvictionIsLeastRecentlyUsed) {
  ResultCache cache(2);
  const auto a = result_of(compare_spec(1));
  const auto b = result_of(compare_spec(2));
  const auto c = result_of(compare_spec(3));
  cache.insert("a", a);
  cache.insert("b", b);
  // Freshen "a": "b" becomes the LRU entry.
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.insert("c", c);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup("b"), nullptr);  // evicted
  EXPECT_NE(cache.lookup("a"), nullptr);  // survived the eviction
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ResultCache, EvictedEntrySurvivesForHolders) {
  // A reader holding the shared_ptr keeps its snapshot alive across
  // eviction (the serve handler may still be serializing it).
  ResultCache cache(1);
  cache.insert("a", result_of(compare_spec(1)));
  const std::shared_ptr<const ScenarioResult> held = cache.lookup("a");
  cache.insert("b", result_of(compare_spec(2)));
  EXPECT_EQ(cache.lookup("a"), nullptr);
  EXPECT_EQ(held->spec.schedule.app_count, 1);
}

TEST(ResultCache, AttachedBytesComeBackWithTheHitAndLeaveWithTheEntry) {
  ResultCache cache(1);
  cache.insert("a", result_of(compare_spec(1)));
  std::shared_ptr<const io::ByteSegments> bytes;
  ASSERT_NE(cache.lookup("a", &bytes), nullptr);
  EXPECT_EQ(bytes, nullptr);  // nothing attached yet
  auto attached = std::make_shared<const io::ByteSegments>("rendered a");
  cache.attach_bytes("a", attached);
  // First attach wins: the entry's bytes are never replaced.
  cache.attach_bytes("a", std::make_shared<const io::ByteSegments>("other"));
  ASSERT_NE(cache.lookup("a", &bytes), nullptr);
  EXPECT_EQ(bytes, attached);
  // Attaching to an absent key is a no-op.
  cache.attach_bytes("missing", std::make_shared<const io::ByteSegments>("x"));
  EXPECT_EQ(cache.stats().size, 1u);

  // Evicting the entry frees its bytes once no reader holds them.
  const std::weak_ptr<const io::ByteSegments> watch = attached;
  attached.reset();
  bytes.reset();
  EXPECT_FALSE(watch.expired());
  cache.insert("b", result_of(compare_spec(2)));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(cache.lookup("a", &bytes), nullptr);
  EXPECT_EQ(bytes, nullptr);
}

TEST(ResultCache, AttachingBytesCountsNothingAndWritesNothingToTheStore) {
  const std::string dir = ::testing::TempDir() + "/greenfpga_cache_attach";
  std::filesystem::remove_all(dir);
  CacheStore store(dir);
  ResultCache cache(4);
  cache.attach_store(&store);
  cache.insert("a", result_of(compare_spec(1)));
  ASSERT_NE(cache.lookup("a"), nullptr);
  const auto snapshot = [&dir] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files.emplace_back(entry.path().string(),
                         std::string(std::istreambuf_iterator<char>(in), {}));
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto files_before = snapshot();
  ASSERT_EQ(files_before.size(), 1u);
  const ResultCacheStats before = cache.stats();

  cache.attach_bytes("a", std::make_shared<const io::ByteSegments>("rendered a"));

  const ResultCacheStats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.disk_hits, before.disk_hits);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.size, before.size);
  EXPECT_EQ(snapshot(), files_before);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, ClearKeepsLifetimeCounters) {
  ResultCache cache(4);
  cache.insert("a", result_of(compare_spec(1)));
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.lookup("a"), nullptr);
}

TEST(ResultCache, ZeroCapacityClampsToOne) {
  ResultCache cache(0);
  EXPECT_EQ(cache.stats().capacity, 1u);
}

TEST(ResultCache, ShardedCountersStayExact) {
  // Capacity 4 over 2 shards (2 each).  Ten distinct keys land on shards
  // by FNV-1a digest; whatever the split, the aggregated counters must
  // account for every operation exactly.
  ResultCache cache(4, 2);
  const auto result = result_of(compare_spec(1));
  for (int i = 0; i < 10; ++i) {
    cache.insert("key " + std::to_string(i), result);
  }
  const ResultCacheStats after_inserts = cache.stats();
  EXPECT_EQ(after_inserts.shards, 2u);
  EXPECT_EQ(after_inserts.capacity, 4u);
  EXPECT_LE(after_inserts.size, 4u);
  EXPECT_EQ(after_inserts.evictions, 10u - after_inserts.size);
  std::uint64_t found = 0;
  for (int i = 0; i < 10; ++i) {
    if (cache.lookup("key " + std::to_string(i)) != nullptr) {
      ++found;
    }
  }
  const ResultCacheStats after_lookups = cache.stats();
  EXPECT_EQ(found, after_inserts.size);  // exactly the residents hit
  EXPECT_EQ(after_lookups.hits, found);
  EXPECT_EQ(after_lookups.misses, 10u - found);
  EXPECT_EQ(after_lookups.hits + after_lookups.misses, 10u);
}

TEST(ResultCache, ShardCapacityRoundsUp) {
  // ceil(5 / 4) = 2 per shard: the effective total is 8, never 4.
  const ResultCache cache(5, 4);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.capacity, 8u);
  // Degenerate inputs clamp instead of dividing by zero.
  EXPECT_EQ(ResultCache(0, 0).stats().capacity, 1u);
  EXPECT_EQ(ResultCache(0, 0).stats().shards, 1u);
}

TEST(ResultCache, ShardedHammerAccountsForEveryOperation) {
  // The sharded path under thread churn: distinct keys spread over
  // shards, capacity forcing eviction, every lookup+insert tallied.
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  constexpr int kKeys = 16;
  ResultCache cache(8, 4);
  const auto result = result_of(compare_spec(1));
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string key = "key " + std::to_string((t + i) % kKeys);
        if (cache.lookup(key) == nullptr) {
          cache.insert(key, result);
        }
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_LE(stats.size, 8u);
  EXPECT_EQ(stats.disk_hits, 0u);  // no store attached
}

TEST(ResultCache, DiskTierPromotesOnMemoryMissAndSurvivesEviction) {
  const std::string dir = ::testing::TempDir() + "/greenfpga_cache_tier";
  std::filesystem::remove_all(dir);
  CacheStore store(dir);
  const ScenarioSpec spec = compare_spec(1);
  const auto a = result_of(spec);
  const auto b = result_of(compare_spec(2));
  {
    ResultCache cache(1);
    cache.attach_store(&store);
    cache.insert("a", a);
    cache.insert("b", b);  // evicts "a" from memory; disk keeps it
    const std::shared_ptr<const ScenarioResult> back = cache.lookup("a");
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(canonical(*back), canonical(*a));
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
  }
  // A fresh cache over the same store: still answered, from disk.
  {
    ResultCache cache(4);
    cache.attach_store(&store);
    const std::shared_ptr<const ScenarioResult> back = cache.lookup("b");
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(canonical(*back), canonical(*b));
    // Promoted: the second lookup is a pure memory hit.
    ASSERT_NE(cache.lookup("b"), nullptr);
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.disk_hits, 1u);
  }
  // A corrupted entry degrades to an honest miss, never a wrong answer.
  {
    std::ofstream(store.path_for("a"), std::ios::trunc) << "{ not json";
    ResultCache cache(4);
    cache.attach_store(&store);
    EXPECT_EQ(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, EngineRunReturnsByteIdenticalCachedResult) {
  ResultCache cache(8);
  const Engine cached(EngineOptions{.threads = 1, .cache = &cache});
  const Engine cold(EngineOptions{.threads = 1});
  const ScenarioSpec spec = compare_spec(4);
  const std::string first = canonical(cached.run(spec));
  EXPECT_EQ(cache.stats().misses, 1u);
  const std::string second = canonical(cached.run(spec));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, canonical(cold.run(spec)));
}

TEST(ResultCache, RunCachedReportsHitAndStableKey) {
  ResultCache cache(8);
  const Engine engine(EngineOptions{.threads = 1, .cache = &cache});
  const Engine::CachedRun first = engine.run_cached(compare_spec(2));
  EXPECT_FALSE(first.hit);
  const Engine::CachedRun second = engine.run_cached(compare_spec(2));
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.key, second.key);
  EXPECT_EQ(second.result, first.result);  // the same shared snapshot
  EXPECT_NE(engine.run_cached(compare_spec(3)).key, first.key);
  // Without a configured cache, run_cached still evaluates.
  const Engine uncached(EngineOptions{.threads = 1});
  EXPECT_FALSE(uncached.run_cached(compare_spec(2)).hit);
}

TEST(ResultCache, CacheKeyCoversSuiteAndResolvedPlatforms) {
  const Engine engine(EngineOptions{.threads = 1});
  ScenarioSpec spec = compare_spec(2);
  const std::string base = engine.cache_key(spec);
  // Same content -> same key, regardless of object identity.
  EXPECT_EQ(engine.cache_key(compare_spec(2)), base);
  // A model-suite change is a different content address.
  ScenarioSpec other_suite = compare_spec(2);
  other_suite.suite.operation.use_intensity =
      2.0 * other_suite.suite.operation.use_intensity;
  EXPECT_NE(engine.cache_key(other_suite), base);
  // A different platform set too.
  ScenarioSpec other_platforms = compare_spec(2);
  other_platforms.platforms = {PlatformRef{.name = "asic"},
                               PlatformRef{.name = "gpu"}};
  EXPECT_NE(engine.cache_key(other_platforms), base);
  // The key is a deterministic function of content, so its digest is too.
  EXPECT_EQ(io::content_digest(base), io::content_digest(engine.cache_key(spec)));
}

TEST(ResultCache, RunBatchEvaluatesRepeatedSpecsOnce) {
  ResultCache cache(16);
  const Engine engine(EngineOptions{.threads = 2, .cache = &cache});
  const ScenarioSpec a = compare_spec(1);
  const ScenarioSpec b = compare_spec(2);
  const std::vector<ScenarioResult> results = engine.run_batch({a, b, a, a});
  ASSERT_EQ(results.size(), 4u);
  // One lookup (miss) per *distinct* key, not per spec.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(canonical(results[0]), canonical(results[2]));
  EXPECT_EQ(canonical(results[0]), canonical(results[3]));
  // Batch results match cold individual runs byte-for-byte.
  const Engine cold(EngineOptions{.threads = 1});
  EXPECT_EQ(canonical(results[0]), canonical(cold.run(a)));
  EXPECT_EQ(canonical(results[1]), canonical(cold.run(b)));
  // A second batch over the same specs is served from the cache.
  const std::vector<ScenarioResult> again = engine.run_batch({a, b});
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(canonical(again[0]), canonical(results[0]));
  EXPECT_EQ(canonical(again[1]), canonical(results[1]));
}

TEST(ResultCache, MultiThreadedHammerStaysDeterministic) {
  // Many threads, few distinct specs, a capacity small enough to force
  // eviction churn: every returned result must still be byte-identical
  // to the cold answer for its spec (raced under ASan+UBSan in CI).
  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  constexpr int kSpecs = 4;
  std::vector<std::string> expected;
  std::vector<ScenarioSpec> specs;
  for (int s = 0; s < kSpecs; ++s) {
    specs.push_back(compare_spec(s + 1));
    expected.push_back(canonical(Engine(EngineOptions{.threads = 1}).run(specs.back())));
  }
  ResultCache cache(2);  // smaller than the working set: constant eviction
  const Engine engine(EngineOptions{.threads = 1, .cache = &cache});
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const int s = (t + i) % kSpecs;
        const Engine::CachedRun run = engine.run_cached(specs[s]);
        if (canonical(*run.result) != expected[s]) {
          failures[t] = "thread " + std::to_string(t) + " iteration " +
                        std::to_string(i) + ": wrong result for spec " +
                        std::to_string(s);
          return;
        }
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_LE(stats.size, 2u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace greenfpga::scenario
