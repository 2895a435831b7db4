#ifndef GREENFPGA_SERVE_HANDLERS_HPP
#define GREENFPGA_SERVE_HANDLERS_HPP

/// \file handlers.hpp
/// The `greenfpga serve` API surface over the evaluation engine.
///
/// Endpoints (all bodies JSON; non-2xx bodies are `{"error": ...}`):
///
///   * `POST /v1/run`    -- one scenario spec in (the `greenfpga run`
///     spec shape), the canonical result JSON out, **byte-identical to
///     `greenfpga run --format json`** on the same spec (pinned by
///     tests/serve_test.cpp), cache hits included.  The `X-Cache` header
///     reports `hit` or `miss`, `X-Cache-Key` the spec's content digest,
///     and `X-Request-Digest` the canonical digest of the request body
///     when hash-while-parse could compute it (keys arrived sorted).
///   * `POST /v1/batch`  -- `{"specs": [<spec>, ...]}` in, the array of
///     canonical result JSONs out (spec order); repeated/previously-seen
///     specs come from the cache.
///   * `GET /v1/platforms` -- registry platform names and known domains.
///   * `GET /v1/stats`   -- cache hit/miss/eviction counters, occupancy,
///     request counts, `fast_path_hits` (hits answered from the cache
///     entry's stored bytes, with nothing rendered), engine worker
///     count, and the worker pool's `pool` counters (`helpers`,
///     `tasks_run`, `tasks_inline`; see core/parallel.hpp).
///   * `GET /healthz`    -- liveness: `{"status":"ok"}`.
///
/// Each request body is parsed once, into the `io::Json` facade:
/// `/v1/run` with `io::parse_json_hashed`, which computes the canonical
/// FNV-1a digest during the parse, and `/v1/batch` with `io::parse_json`.
/// On the response side a miss has the kind modules write the canonical
/// bytes directly (`scenario::result_segments`, no result DOM), and the
/// handler attaches the writer's buffers, uncopied, to the result's entry
/// in the one `scenario::ResultCache`.  A later `/v1/run` hit gets them
/// back from the same lookup (`Engine::CachedRun::bytes`) and streams
/// them without rendering; a hit on an entry with no bytes yet (inserted
/// by a batch or promoted from disk) renders once and attaches them.
/// Either way the response body is the one copy of the bytes.
///
/// Spec parse/validation failures answer 400 with the same
/// offending-key-naming message the CLI prints; over-limit or malformed
/// HTTP answers 4xx at the transport layer (serve/http.hpp).  Every
/// handler is safe under concurrent requests: the engine is stateless,
/// the cache is thread-safe, and the counters are atomic.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "serve/router.hpp"

namespace greenfpga::serve {

/// Shared state behind one serving process: the content-addressed result
/// cache (sharded; optionally disk-backed) and the engine wired to it,
/// plus request counters.  Construct once, then build the router over
/// it; must outlive the server.
class ServeContext {
 public:
  /// `engine_options.cache` is overwritten to point at the owned cache.
  /// A non-empty `cache_dir` attaches a disk tier (created if absent;
  /// throws std::runtime_error when unusable), so a restarted daemon
  /// keeps its previously evaluated results.
  explicit ServeContext(scenario::EngineOptions engine_options = {},
                        std::size_t cache_capacity = 1024,
                        std::size_t cache_shards = 8,
                        const std::string& cache_dir = "");

  [[nodiscard]] scenario::ResultCache& cache() { return cache_; }
  [[nodiscard]] const scenario::Engine& engine() const { return engine_; }
  /// The registry the engine resolves platform names against.
  [[nodiscard]] const device::PlatformRegistry& registry() const { return *registry_; }

  std::atomic<std::uint64_t> requests{0};  ///< routed requests
  std::atomic<std::uint64_t> errors{0};    ///< non-2xx responses
  /// `/v1/run` hits answered from the cache entry's stored bytes (nothing
  /// rendered).  Surfaced in `/v1/stats`.
  std::atomic<std::uint64_t> fast_path_hits{0};

 private:
  /// Declaration order is load-bearing: the store outlives the cache
  /// that points at it, and the cache outlives the engine wired to it.
  std::optional<scenario::CacheStore> store_;
  scenario::ResultCache cache_;
  scenario::Engine engine_;
  const device::PlatformRegistry* registry_;
};

/// Build the dispatch table over `context` (which must outlive the
/// returned router and any server running it).
[[nodiscard]] Router make_router(ServeContext& context);

}  // namespace greenfpga::serve

#endif  // GREENFPGA_SERVE_HANDLERS_HPP
