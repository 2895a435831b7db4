#ifndef GREENFPGA_E2EBENCH_BENCH_HPP
#define GREENFPGA_E2EBENCH_BENCH_HPP

/// \file bench.hpp
/// The repository benchmark: `POST /v1/run` traffic mixes driven end to
/// end through an in-process `serve::Server`, plus a single-threaded
/// traced replay of the same requests through the public functions the
/// handler calls.
///
/// The program is timed only from outside, through the public API of
/// src/serve, src/io, src/scenario and src/core.  Every input is
/// generated from the workload seed; the server receives only the
/// generated bodies.  Every response is checked against an oracle built
/// with an uncached `Engine` before any timing starts.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "scenario/spec.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"

namespace e2ebench {

namespace gf = greenfpga;

// The serving configuration under test.  Fixed small values, never sized
// from the hardware, so a run means the same thing on any host: two
// closed-loop callers (dashboards, batch scripts, CI jobs that each wait
// for their reply), two handler workers, two engine threads per run.
inline constexpr int kClients = 2;
inline constexpr int kWorkers = 2;
inline constexpr int kEngineThreads = 2;
// One exact LRU of 16 results: hot_small's dozen specs stay resident,
// cold_large's 20-grid pool never hits, and mixed_churn's 48-spec pool
// churns (3x capacity).
inline constexpr std::size_t kCacheCapacity = 16;
inline constexpr std::size_t kCacheShards = 1;

enum class Workload { hot_small, cold_large, mixed_churn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload workload);

/// What the `X-Cache` header of a `/v1/run` response must say once the
/// warm pass is done.
enum class CacheExpect { hit, miss, either };

/// Engine options with an explicit worker count and an optional cache.
[[nodiscard]] gf::scenario::EngineOptions engine_options(
    int threads, gf::scenario::ResultCache* cache = nullptr);

/// One distinct request body.  `expected` indexes `Oracle` bodies.
struct Request {
  std::string target;  ///< "/v1/run" or "/v1/batch"
  std::string body;
  std::size_t expected = 0;
};

/// Everything a workload sends, generated from its seed alone.
struct Inputs {
  /// Distinct specs whose results the oracle computes; a `/v1/run`
  /// request's `expected` is its spec index here.
  std::vector<gf::scenario::ScenarioSpec> specs;
  /// Spec indices of each `/v1/batch` manifest (`expected` is
  /// `specs.size() + manifest index`).
  std::vector<std::vector<std::size_t>> batches;
  /// Every distinct request once: the warm pass sends these in order.
  std::vector<Request> requests;
  /// The timed stream: indices into `requests`, cycled from the start.
  std::vector<std::size_t> stream;
  CacheExpect run_cache = CacheExpect::either;
};

[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed);

/// The HTTP/1.1 bytes a keep-alive client sends for `request`.
[[nodiscard]] std::string wire_request(const Request& request);

/// The body the server sends for a result: its canonical dump and a
/// newline.
[[nodiscard]] std::string response_body(const gf::io::Json& result);

/// Expected responses, computed with an uncached engine before any timing
/// starts.  Only the size and the FNV-1a digest of each body are kept, so
/// the oracle adds little to the measured process's memory; any single
/// flipped byte changes the digest.
class Oracle {
 public:
  [[nodiscard]] static Oracle build(const Inputs& inputs);

  /// Empty when `response` is the correct answer to `request`, else the
  /// reason.  `cache` applies to `/v1/run` only.
  [[nodiscard]] std::string mismatch(const Request& request,
                                     const gf::serve::HttpResponse& response,
                                     CacheExpect cache) const;

 private:
  struct Expected {
    std::uint64_t digest = 0;
    std::size_t size = 0;
  };
  std::vector<Expected> expected_;  ///< specs, then batch manifests
};

/// One correct response of a timed window.
struct Completion {
  double done_s = 0.0;  ///< completion time, seconds after the window opened
  double latency_ms = 0.0;
};

/// The end-to-end figures of a timed window, robust to stalls of a shared
/// host: such a stall moves a few slices or tail windows, not the figure.
///   * The window is cut into one-second slices.  `throughput_rps` is the
///     median over slices of the slice's correct completions per second;
///     `p50` is the median over slices of the slice's median latency.
///   * `p99` is the median, over windows of `kTailWindow` consecutive
///     completions starting every `kTailStep`, of each window's p99.
///     `beyond_p99` is the fewest samples any window has strictly above
///     its p99: at least 10 once the run holds `kTailWindow` completions.
/// Percentiles interpolate linearly between closest ranks.
inline constexpr std::size_t kTailWindow = 1000;
inline constexpr std::size_t kTailStep = 100;
struct LoadSummary {
  std::size_t samples = 0;
  std::size_t slices = 0;
  double throughput_rps = 0.0;
  double p50 = 0.0;
  std::size_t windows = 0;
  double p99 = 0.0;
  std::size_t beyond_p99 = 0;
};

/// Linear-interpolation percentile of an ascending sample, `q` in [0, 1].
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);
[[nodiscard]] double median(std::vector<double> samples);
/// `completions` in completion order; `window_s` > 0.
[[nodiscard]] LoadSummary summarize(const std::vector<Completion>& completions,
                                    double window_s);

/// The server under test and the context it serves from.
struct Stack {
  Stack();
  gf::serve::ServeContext context;
  gf::serve::Server server;
};

/// Request counts of one phase.
struct PhaseCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  /// Count one request, as failed when `failure` (a reason) is non-empty.
  /// Returns whether it succeeded.
  bool record(std::string failure);
};

/// Send every distinct request once, in order, from one client.
[[nodiscard]] PhaseCounts warm_pass(const Stack& stack, const Inputs& inputs,
                                    const Oracle& oracle);

/// `kClients` closed-loop keep-alive clients sharing one cursor over the
/// stream, starting at stream position `first`, for `seconds`.
/// Completions are the correct responses, in the order they completed.
struct LoadResult {
  PhaseCounts counts;
  double window_s = 0.0;
  std::vector<Completion> completions;
  std::size_t next = 0;  ///< the stream position a following phase continues from
};
[[nodiscard]] LoadResult closed_loop(const Stack& stack, const Inputs& inputs,
                                     const Oracle& oracle, double seconds,
                                     std::size_t first = 0);

/// Cache counters read through `GET /v1/stats`.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};
[[nodiscard]] CacheCounters fetch_stats(const Stack& stack);

/// One per-layer metric of the traced run.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced run: a route replay through `Router::route`, a stage replay
/// with a span around each public call, the same stage replay untraced
/// (for the tracing overhead), and the engine pool speedup.
struct TraceResult {
  PhaseCounts counts;
  std::vector<LayerMetric> metrics;
  double cache_hit_ratio = 0.0;  ///< after the warm pass; also in `metrics`
};
[[nodiscard]] TraceResult traced_replay(const Inputs& inputs, const Oracle& oracle,
                                        double seconds, double socket_p50_ms);

}  // namespace e2ebench

#endif  // GREENFPGA_E2EBENCH_BENCH_HPP
