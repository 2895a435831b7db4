/// \file replay.cpp
/// The traced run: each workload's requests replayed single-threaded, once
/// through `Router::route` (the whole handler) and once through the
/// public calls the handler makes, with a span around each call.
///
/// Stage names are the contract later changes are measured by; they stay
/// fixed when the calls behind them change.  The replay calls only entry
/// points the serve path keeps across its planned rework: the JSON parse,
/// `spec_from_json`, `Engine::cache_key`, `ResultCache::lookup`,
/// `Engine::run`, `result_to_json`, `Json::dump_to`, `serialize_response`
/// and `RequestFramer::next`.

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "io/json.hpp"
#include "io/json_arena.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/result_io.hpp"

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;
using gf::io::Json;
using gf::scenario::ScenarioResult;
using gf::scenario::ScenarioSpec;

enum Stage : std::size_t {
  kFrame,
  kParse,
  kDecode,
  kKey,
  kLookup,
  kExecute,
  kRender,
  kDump,
  kWrite,
  kBatch,
  kStageCount,
};

constexpr std::array<std::string_view, kStageCount> kStageNames = {
    "serve.frame",      "io.parse",        "scenario.decode", "scenario.key",
    "scenario.lookup",  "scenario.execute", "scenario.render", "io.dump",
    "serve.write",      "scenario.batch"};

/// The stages that run inside `Router::route`; framing and writing happen
/// in the server around it.
constexpr std::array<Stage, 8> kHandlerStages = {kParse,  kDecode, kKey,  kLookup,
                                                 kExecute, kRender, kDump, kBatch};

/// Request bodies are the `greenfpga run` dialect: `//` comments allowed.
constexpr gf::io::JsonParseOptions kDialect{.allow_comments = true, .max_depth = 256};

/// A span around each public call: per-stage durations kept in memory for
/// the whole replay, summarized at the end.  Disabled, it only makes the
/// calls, which is the untraced replay the overhead is measured against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  template <class Call>
  void time(Stage stage, Call&& call) {
    if (!enabled_) {
      call();
      return;
    }
    const Clock::time_point start = Clock::now();
    call();
    us_[stage].push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }

  /// Per-stage call durations [us].
  [[nodiscard]] const std::array<std::vector<double>, kStageCount>& durations_us() const {
    return us_;
  }

 private:
  bool enabled_;
  std::array<std::vector<double>, kStageCount> us_;
};

/// The handler's state, rebuilt from public parts: the result cache, an
/// engine keyed on it, an uncached engine for misses, and the rendered
/// bodies a hit streams back.
struct ReplayState {
  gf::scenario::ResultCache cache{kCacheCapacity, kCacheShards};
  gf::scenario::Engine keyed{engine_options(kEngineThreads, &cache)};
  gf::scenario::Engine uncached{engine_options(kEngineThreads)};
  std::unordered_map<std::string, std::string> rendered;
};

void replay_run(ReplayState& state, Tracer& tracer, const gf::serve::HttpRequest& request,
                gf::serve::HttpResponse& response) {
  Json parsed;
  // The handler's parse today: the arena parser with hash-while-parse,
  // then the facade copy.  The stage keeps its name when the handler moves
  // to io::parse_json_hashed.
  tracer.time(kParse, [&] {
    parsed = gf::io::parse_json_arena(request.body, kDialect, /*hash_canonical=*/true).to_json();
  });
  ScenarioSpec spec;
  tracer.time(kDecode, [&] {
    spec = gf::scenario::spec_from_json(parsed);
    spec.validate();
  });
  std::string key;
  tracer.time(kKey, [&] { key = state.keyed.cache_key(spec); });
  std::shared_ptr<const ScenarioResult> result;
  tracer.time(kLookup, [&] { result = state.cache.lookup(key); });
  const bool hit = result != nullptr;
  auto body = hit ? state.rendered.find(key) : state.rendered.end();
  if (body == state.rendered.end()) {
    if (!hit) {
      tracer.time(kExecute, [&] {
        result = std::make_shared<const ScenarioResult>(state.uncached.run(spec));
      });
      state.cache.insert(key, result);
    }
    Json json;
    tracer.time(kRender, [&] { json = gf::scenario::result_to_json(*result); });
    std::string text;
    tracer.time(kDump, [&] {
      json.dump_to(text);
      text.push_back('\n');
    });
    body = state.rendered.insert_or_assign(key, std::move(text)).first;
  }
  response.body = body->second;
  response.set_header("X-Cache", hit ? "hit" : "miss");
}

void replay_batch(ReplayState& state, Tracer& tracer, const gf::serve::HttpRequest& request,
                  gf::serve::HttpResponse& response) {
  Json parsed;
  tracer.time(kParse,
              [&] { parsed = gf::io::parse_json_arena(request.body, kDialect).to_json(); });
  std::vector<ScenarioSpec> specs;
  for (const Json& entry : parsed.at("specs").as_array()) {
    tracer.time(kDecode, [&] {
      specs.push_back(gf::scenario::spec_from_json(entry));
      specs.back().validate();
    });
  }
  std::vector<ScenarioResult> results;
  tracer.time(kBatch, [&] { results = state.keyed.run_batch(specs); });
  Json body = Json::array();
  for (const ScenarioResult& result : results) {
    tracer.time(kRender, [&] { body.push_back(gf::scenario::result_to_json(result)); });
  }
  tracer.time(kDump, [&] {
    body.dump_to(response.body);
    response.body.push_back('\n');
  });
}

/// One request through the stages, from wire bytes to wire bytes.
gf::serve::HttpResponse replay_request(ReplayState& state, Tracer& tracer, std::string wire) {
  gf::serve::RequestFramer framer;
  gf::serve::HttpRequest request;
  bool framed = false;
  tracer.time(kFrame, [&] { framed = framer.next(wire, request); });
  if (!framed) {
    throw std::logic_error("replay: a generated request did not frame");
  }
  gf::serve::HttpResponse response;
  response.status = 200;
  response.set_header("Content-Type", "application/json");
  if (request.target == "/v1/run") {
    replay_run(state, tracer, request, response);
  } else {
    replay_batch(state, tracer, request, response);
  }
  std::string out;
  tracer.time(kWrite, [&] { out = gf::serve::serialize_response(response); });
  return response;
}

/// The requests of one replay: every distinct request once (the warm
/// pass), then the first `timed` entries of the stream.
std::vector<std::size_t> replay_order(const Inputs& inputs, std::size_t timed) {
  std::vector<std::size_t> order(inputs.requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = 0; i < timed; ++i) {
    order.push_back(inputs.stream[i % inputs.stream.size()]);
  }
  return order;
}

/// `Router::route` over a fresh context, per call, for `seconds` of
/// stream after the warm pass; also the cache and fast-path ratios of
/// the post-warm part.
struct RoutePhase {
  std::vector<double> route_us;
  std::size_t timed = 0;
  double hit_ratio = 0.0;
  double evictions_per_kreq = 0.0;
  double fast_path_ratio = 0.0;
};

RoutePhase route_phase(const Inputs& inputs, const Oracle& oracle, double seconds,
                       PhaseCounts& counts) {
  gf::serve::ServeContext context(engine_options(kEngineThreads), kCacheCapacity,
                                  kCacheShards);
  const gf::serve::Router router = gf::serve::make_router(context);
  std::vector<gf::serve::HttpRequest> framed(inputs.requests.size());
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    std::string wire = wire_request(inputs.requests[i]);
    gf::serve::RequestFramer framer;
    if (!framer.next(wire, framed[i])) {
      throw std::logic_error("replay: a generated request did not frame");
    }
  }
  RoutePhase phase;
  const auto route = [&](std::size_t index, CacheExpect cache) {
    const Clock::time_point start = Clock::now();
    const gf::serve::HttpResponse response = router.route(framed[index]);
    phase.route_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    counts.record(oracle.mismatch(inputs.requests[index], response, cache));
  };
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    route(i, CacheExpect::either);
  }
  const gf::scenario::ResultCacheStats before = context.cache().stats();
  const std::uint64_t fast_before = context.fast_path_hits.load();
  std::size_t runs = 0;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    const std::size_t index = inputs.stream[phase.timed % inputs.stream.size()];
    runs += inputs.requests[index].target == "/v1/run" ? 1 : 0;
    route(index, inputs.run_cache);
    ++phase.timed;
  }
  const gf::scenario::ResultCacheStats after = context.cache().stats();
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto lookups = hits + static_cast<double>(after.misses - before.misses);
  phase.hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  phase.evictions_per_kreq = 1e3 * static_cast<double>(after.evictions - before.evictions) /
                             static_cast<double>(std::max<std::size_t>(phase.timed, 1));
  phase.fast_path_ratio =
      static_cast<double>(context.fast_path_hits.load() - fast_before) /
      static_cast<double>(std::max<std::size_t>(runs, 1));
  return phase;
}

struct StageReplay {
  double wall_s = 0.0;
  double request_bytes = 0.0;   ///< mean body bytes
  double response_bytes = 0.0;  ///< mean body bytes
};

/// The stage replay over `order` (the first `warm` of it is the warm pass).
StageReplay stage_replay(const Inputs& inputs, const Oracle& oracle,
                         const std::vector<std::size_t>& order, std::size_t warm,
                         Tracer& tracer, PhaseCounts& counts) {
  ReplayState state;
  std::vector<std::string> wires;
  wires.reserve(inputs.requests.size());
  for (const Request& request : inputs.requests) {
    wires.push_back(wire_request(request));
  }
  StageReplay replay;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Request& request = inputs.requests[order[i]];
    const gf::serve::HttpResponse response = replay_request(state, tracer, wires[order[i]]);
    counts.record(
        oracle.mismatch(request, response, i < warm ? CacheExpect::either : inputs.run_cache));
    replay.request_bytes += static_cast<double>(request.body.size());
    replay.response_bytes += static_cast<double>(response.body.size());
  }
  replay.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  replay.request_bytes /= static_cast<double>(order.size());
  replay.response_bytes /= static_cast<double>(order.size());
  return replay;
}

/// Engine::run at one thread over Engine::run at the configured threads,
/// summed over the workload's first few specs (median of three each).
double pool_speedup(const Inputs& inputs) {
  const gf::scenario::Engine serial(engine_options(1));
  const gf::scenario::Engine pooled(engine_options(kEngineThreads));
  double serial_s = 0.0;
  double pooled_s = 0.0;
  for (std::size_t i = 0; i < std::min<std::size_t>(inputs.specs.size(), 4); ++i) {
    std::vector<double> one;
    std::vector<double> many;
    for (int rep = 0; rep < 3; ++rep) {
      for (auto [engine, samples] : {std::pair{&serial, &one}, std::pair{&pooled, &many}}) {
        const Clock::time_point start = Clock::now();
        const ScenarioResult result = engine->run(inputs.specs[i]);
        samples->push_back(std::chrono::duration<double>(Clock::now() - start).count());
      }
    }
    serial_s += median(one);
    pooled_s += median(many);
  }
  return serial_s / pooled_s;
}

double total(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

}  // namespace

TraceResult traced_replay(const Inputs& inputs, const Oracle& oracle, double seconds,
                          double socket_p50_ms) {
  TraceResult trace;
  const RoutePhase route = route_phase(inputs, oracle, seconds, trace.counts);
  const std::vector<std::size_t> order = replay_order(inputs, route.timed);
  const std::size_t warm = inputs.requests.size();

  // Untraced, traced, untraced: the overhead compares the traced replay
  // with the mean of the two around it, so warm-up does not bias it.
  Tracer untraced(false);
  Tracer tracer(true);
  const StageReplay before = stage_replay(inputs, oracle, order, warm, untraced, trace.counts);
  const StageReplay traced = stage_replay(inputs, oracle, order, warm, tracer, trace.counts);
  const StageReplay after = stage_replay(inputs, oracle, order, warm, untraced, trace.counts);
  const double plain_s = 0.5 * (before.wall_s + after.wall_s);

  const std::array<std::vector<double>, kStageCount>& stages = tracer.durations_us();
  std::vector<LayerMetric>& out = trace.metrics;
  double handler_us = 0.0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const std::string name(kStageNames[s]);
    out.push_back({name + "_us", stages[s].empty() ? 0.0 : median(stages[s]), "us"});
    out.push_back({name + "_calls", static_cast<double>(stages[s].size()), "count"});
  }
  for (const Stage stage : kHandlerStages) {
    handler_us += total(stages[stage]);
  }
  const double route_p50_us = median(route.route_us);
  out.push_back({"serve.route_us", route_p50_us, "us"});
  out.push_back({"serve.route_calls", static_cast<double>(route.route_us.size()), "count"});
  out.push_back({"serve.transport_us", socket_p50_ms * 1e3 - route_p50_us, "us"});
  out.push_back({"core.pool_speedup", pool_speedup(inputs), "ratio"});
  out.push_back({"io.request_bytes", traced.request_bytes, "bytes"});
  out.push_back({"io.response_bytes", traced.response_bytes, "bytes"});
  out.push_back({"scenario.cache_hit_ratio", route.hit_ratio, "ratio"});
  out.push_back({"scenario.evictions_per_kreq", route.evictions_per_kreq, "1/kreq"});
  out.push_back({"serve.fast_path_ratio", route.fast_path_ratio, "ratio"});
  // Totals, not medians: stages run on different subsets of requests
  // (execute only on misses), so only busy time sums meaningfully.  Both
  // replays ran the same requests from the same cache state.
  out.push_back({"trace.coverage", handler_us / total(route.route_us), "ratio"});
  out.push_back({"trace.overhead_pct", 100.0 * (traced.wall_s - plain_s) / plain_s, "%"});
  trace.cache_hit_ratio = route.hit_ratio;
  return trace;
}

}  // namespace e2ebench
