/// \file handlers.cpp
/// The serve endpoints: spec in, canonical result JSON out, cached.

#include "serve/handlers.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config_io.hpp"
#include "core/parallel.hpp"
#include "device/catalog.hpp"
#include "io/hash.hpp"
#include "io/json.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"

namespace greenfpga::serve {

namespace {

using io::Json;

/// Wrap a handler with the uniform error mapping: domain errors (bad
/// JSON, unknown keys, invalid specs) answer 400 with the same
/// offending-key-naming message the CLI prints; anything else is a 500.
/// Also maintains the context's request/error counters.
Router::Handler wrap(ServeContext& context, Router::Handler handler) {
  return [&context, handler = std::move(handler)](const HttpRequest& request) {
    context.requests.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    try {
      response = handler(request);
    } catch (const io::JsonError& error) {
      response = error_response(400, error.what());
    } catch (const core::ConfigError& error) {
      response = error_response(400, error.what());
    } catch (const std::invalid_argument& error) {
      response = error_response(400, error.what());
    } catch (const std::out_of_range& error) {
      response = error_response(400, error.what());
    } catch (const std::exception& error) {
      response = error_response(500, error.what());
    }
    if (response.status >= 400) {
      context.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return response;
  };
}

/// The request-body dialect: that of `greenfpga run <spec.json>` (//
/// comments allowed, so a spec file can be POSTed verbatim), with the
/// parser's nesting cap, so a depth bomb is a 400, never a crash.
constexpr io::JsonParseOptions kBodyDialect{.allow_comments = true};

HttpResponse handle_run(ServeContext& context, const HttpRequest& request) {
  // One parse into the facade DOM, hashing as it goes: the request's
  // canonical digest comes out of the same pass when its keys arrive
  // sorted.
  const io::ParsedJson parsed = io::parse_json_hashed(request.body, kBodyDialect);
  // run_cached validates the spec before it builds the key.
  const scenario::Engine::CachedRun run =
      context.engine().run_cached(scenario::spec_from_json(parsed.value));
  HttpResponse response;
  response.status = 200;
  response.set_header("Content-Type", "application/json");
  std::shared_ptr<const io::ByteSegments> bytes = run.bytes;
  if (bytes != nullptr) {
    // The cache entry holds its rendered bytes: stream them back without
    // writing anything.
    context.fast_path_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A miss, or a hit on an entry not rendered yet (inserted by a batch
    // or promoted from disk): the kind modules write the canonical bytes
    // directly, a large section on the engine's workers, and the live
    // entry keeps the writer's buffers as they are for the next hit.
    bytes = std::make_shared<const io::ByteSegments>(
        scenario::result_segments(*run.result, context.engine().threads()));
    context.cache().attach_bytes(run.key, bytes);
  }
  // The one copy of the bytes a response makes, on a miss as on a hit.
  bytes->append_to(response.body);
  response.set_header("X-Cache", run.hit ? "hit" : "miss");
  // The fingerprint was folded while the key was dumped; same text as
  // content_digest(run.key), no re-hash of the key bytes.
  response.set_header("X-Cache-Key", io::content_digest_of_hash(run.fingerprint));
  if (parsed.canonical_digest.has_value()) {
    response.set_header("X-Request-Digest",
                        io::content_digest_of_hash(*parsed.canonical_digest));
  }
  return response;
}

HttpResponse handle_batch(ServeContext& context, const HttpRequest& request) {
  // Same dialect as /v1/run, so spec files embed verbatim.
  const Json parsed = io::parse_json(request.body, kBodyDialect);
  core::check_known_keys(parsed, "batch request", {"name", "specs"});
  std::vector<scenario::ScenarioSpec> specs;
  const Json::Array& entries = parsed.at("specs").as_array();
  specs.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    try {
      specs.push_back(scenario::spec_from_json(entries[i]));
      specs.back().validate();
    } catch (const std::exception& error) {
      throw core::ConfigError("specs[" + std::to_string(i) + "]: " + error.what());
    }
  }
  const std::vector<scenario::ScenarioResult> results =
      context.engine().run_batch(specs);
  HttpResponse response;
  response.status = 200;
  response.set_header("Content-Type", "application/json");
  io::JsonWriter out(response.body);
  out.begin_array();
  for (const scenario::ScenarioResult& result : results) {
    scenario::write_result(result, out, context.engine().threads());
  }
  out.end_array();
  out.newline();
  out.finish();
  return response;
}

HttpResponse handle_platforms(const ServeContext& context, const HttpRequest&) {
  Json body = Json::object();
  Json platforms = Json::array();
  for (const std::string& name : context.registry().names()) {
    platforms.push_back(name);
  }
  body["platforms"] = std::move(platforms);
  Json domains = Json::array();
  for (const device::Domain domain : device::all_domains()) {
    domains.push_back(to_string(domain));
  }
  body["domains"] = std::move(domains);
  return json_response(200, body);
}

HttpResponse handle_stats(ServeContext& context, const HttpRequest&) {
  const scenario::ResultCacheStats stats = context.cache().stats();
  Json cache = Json::object();
  cache["hits"] = stats.hits;
  cache["misses"] = stats.misses;
  cache["evictions"] = stats.evictions;
  cache["disk_hits"] = stats.disk_hits;
  cache["size"] = stats.size;
  cache["capacity"] = stats.capacity;
  cache["shards"] = stats.shards;
  Json body = Json::object();
  body["cache"] = std::move(cache);
  body["requests"] = context.requests.load(std::memory_order_relaxed);
  body["errors"] = context.errors.load(std::memory_order_relaxed);
  body["fast_path_hits"] = context.fast_path_hits.load(std::memory_order_relaxed);
  body["threads"] = context.engine().threads();
  const core::PoolStats pool_stats = core::pool_stats();
  Json pool = Json::object();
  pool["helpers"] = pool_stats.helpers;
  pool["tasks_run"] = pool_stats.tasks_run;
  pool["tasks_inline"] = pool_stats.tasks_inline;
  body["pool"] = std::move(pool);
  return json_response(200, body);
}

HttpResponse handle_healthz(const HttpRequest&) {
  Json body = Json::object();
  body["status"] = "ok";
  return json_response(200, body);
}

}  // namespace

ServeContext::ServeContext(scenario::EngineOptions engine_options,
                           std::size_t cache_capacity, std::size_t cache_shards,
                           const std::string& cache_dir)
    : store_(cache_dir.empty()
                 ? std::nullopt
                 : std::optional<scenario::CacheStore>(std::in_place, cache_dir)),
      cache_(cache_capacity, cache_shards),
      engine_([&] {
        engine_options.cache = &cache_;
        return scenario::Engine(engine_options);
      }()),
      registry_(engine_options.registry != nullptr
                    ? engine_options.registry
                    : &device::PlatformRegistry::builtins()) {
  if (store_.has_value()) {
    cache_.attach_store(&*store_);
  }
}

Router make_router(ServeContext& context) {
  Router router;
  router.add("POST", "/v1/run", wrap(context, [&context](const HttpRequest& request) {
               return handle_run(context, request);
             }));
  router.add("POST", "/v1/batch",
             wrap(context, [&context](const HttpRequest& request) {
               return handle_batch(context, request);
             }));
  router.add("GET", "/v1/platforms",
             wrap(context, [&context](const HttpRequest& request) {
               return handle_platforms(context, request);
             }));
  router.add("GET", "/v1/stats", wrap(context, [&context](const HttpRequest& request) {
               return handle_stats(context, request);
             }));
  router.add("GET", "/healthz", wrap(context, [](const HttpRequest& request) {
               return handle_healthz(request);
             }));
  return router;
}

}  // namespace greenfpga::serve
