/// \file serve_throughput.cpp
/// Load driver for the `greenfpga serve` daemon: keep-alive HTTP clients
/// hammering a mixed spec workload against an in-process server,
/// reporting requests/second, the cache hit rate, and per-request latency
/// percentiles (p50/p95/p99).
///
/// The serving path's contract is that a hot cache turns repeated
/// questions into hash-lookup-plus-serialization, so the interesting
/// numbers are (a) cold throughput (every request evaluates), (b) hot
/// throughput (every request hits), and (c) the mixed regime operators
/// actually see.  The workload reuses a handful of distinct specs across
/// many requests, so the steady-state hit rate is high by construction --
/// as in the data-center access pattern the daemon exists for.  Responses
/// stay byte-identical to `greenfpga run --format json` throughout
/// (pinned by tests/serve_test.cpp; this driver only measures).
///
/// Each phase's latency samples also flow through the src/bench/ harness
/// into a canonical BENCH_serve.json under results_dir(), so the daemon's
/// latency percentiles are tracked per-PR like every other bench group
/// (the seed of the ROADMAP item-2 p50/p99-under-load trajectory).

#include <atomic>
#include <chrono>
#include <iomanip>
#include <thread>
#include <vector>

#include "bench/artifact.hpp"
#include "bench/harness.hpp"
#include "bench_common.hpp"
#include "report/figure_writer.hpp"
#include "scenario/engine.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "units/format.hpp"

namespace {

using namespace greenfpga;

/// A few distinct questions, re-asked many times (the cache-friendly
/// operator pattern): cheap compares across domains plus a breakeven and
/// a small sweep.
std::vector<std::string> request_bodies() {
  std::vector<std::string> bodies;
  for (const device::Domain domain : device::all_domains()) {
    scenario::ScenarioSpec compare =
        scenario::ScenarioSpec::make(scenario::ScenarioKind::compare, domain);
    bodies.push_back(spec_to_json(compare).dump());
  }
  scenario::ScenarioSpec breakeven = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::breakeven, device::Domain::dnn);
  bodies.push_back(spec_to_json(breakeven).dump());
  scenario::ScenarioSpec sweep =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, device::Domain::dnn);
  sweep.axes = {
      scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 8, 8)};
  bodies.push_back(spec_to_json(sweep).dump());
  return bodies;
}

struct LoadReport {
  int clients = 0;
  int requests = 0;
  double seconds = 0.0;
  /// Per-request wall-clock latencies [s], all clients merged.
  std::vector<double> latencies;
  scenario::ResultCacheStats cache;
};

/// `clients` keep-alive connections, `requests_per_client` POSTs each,
/// round-robin over the body mix.  Every request's round-trip latency is
/// recorded (per-thread buffers, merged after join).
LoadReport hammer(serve::Server& server, serve::ServeContext& context, int clients,
                  int requests_per_client) {
  const std::vector<std::string> bodies = request_bodies();
  std::atomic<int> failures{0};
  std::vector<std::vector<double>> per_client_latencies(
      static_cast<std::size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::vector<double>& latencies = per_client_latencies[static_cast<std::size_t>(c)];
      latencies.reserve(static_cast<std::size_t>(requests_per_client));
      try {
        serve::HttpClient client("127.0.0.1", server.port());
        for (int r = 0; r < requests_per_client; ++r) {
          const auto sent = std::chrono::steady_clock::now();
          const serve::HttpResponse response = client.request(
              "POST", "/v1/run", bodies[static_cast<std::size_t>(c + r) % bodies.size()]);
          latencies.push_back(
              std::chrono::duration<double>(std::chrono::steady_clock::now() - sent)
                  .count());
          if (response.status != 200) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  LoadReport report;
  report.clients = clients;
  report.requests = clients * requests_per_client - failures.load();
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (const std::vector<double>& latencies : per_client_latencies) {
    report.latencies.insert(report.latencies.end(), latencies.begin(), latencies.end());
  }
  report.cache = context.cache().stats();
  if (failures.load() != 0) {
    throw std::runtime_error("serve_throughput: " + std::to_string(failures.load()) +
                             " request(s) failed");
  }
  return report;
}

std::string format_latency(double seconds) {
  return units::format_significant(seconds * 1e3, 3) + " ms";
}

void print_report(const char* phase, const LoadReport& report,
                  const scenario::ResultCacheStats& before) {
  const double hits = static_cast<double>(report.cache.hits - before.hits);
  const double total = hits + static_cast<double>(report.cache.misses - before.misses);
  const bench::SampleStats latency = bench::compute_stats(report.latencies);
  std::cout << "  " << std::left << std::setw(18) << phase << std::right
            << std::setw(4) << report.clients << " clients  " << std::setw(6)
            << report.requests << " reqs  " << std::setw(8) << std::fixed
            << std::setprecision(1) << (report.requests / report.seconds)
            << " req/s  hit rate " << std::setprecision(1)
            << (total > 0 ? 100.0 * hits / total : 0.0) << " %  latency p50 "
            << format_latency(latency.median) << " / p95 "
            << format_latency(latency.p95) << " / p99 "
            << format_latency(latency.p99) << "\n";
}

void print_serve_throughput() {
  bench::banner("serve_throughput",
                "keep-alive clients hammering POST /v1/run through the result cache");
  serve::ServeContext context(scenario::EngineOptions{}, /*cache_capacity=*/256);
  serve::Server server(serve::make_router(context), serve::ServerOptions{});
  server.start();

  // Cold pass: first sight of every spec (one miss each), then mostly
  // hits; hot passes: pure cache service.
  scenario::ResultCacheStats before = context.cache().stats();
  const LoadReport cold = hammer(server, context, 2, 50);
  print_report("cold+warmup", cold, before);
  before = context.cache().stats();
  const LoadReport hot4 = hammer(server, context, 4, 100);
  print_report("hot x4 clients", hot4, before);
  before = context.cache().stats();
  const LoadReport hot8 = hammer(server, context, 8, 100);
  print_report("hot x8 clients", hot8, before);
  // The event-loop acceptance load: well past the old thread-per-
  // connection comfort zone, still inside max_connections (64).
  before = context.cache().stats();
  const LoadReport hot32 = hammer(server, context, 32, 50);
  print_report("hot x32 clients", hot32, before);

  const scenario::ResultCacheStats stats = context.cache().stats();
  std::cout << "  lifetime: " << stats.hits << " hits / " << stats.misses
            << " misses / " << stats.evictions << " evictions; "
            << server.requests_served() << " requests served\n";
  server.stop();

  // Per-request latencies through the harness: one case per load phase,
  // emitted as the canonical serve bench artifact.
  bench::BenchArtifact artifact;
  artifact.group = "serve";
  artifact.environment = bench::capture_environment();
  artifact.cases.push_back(bench::result_from_samples(
      "serve", "cold_2x50", /*warmup=*/0, /*iterations=*/1, cold.latencies));
  artifact.cases.push_back(bench::result_from_samples(
      "serve", "hot_4x100", /*warmup=*/0, /*iterations=*/1, hot4.latencies));
  artifact.cases.push_back(bench::result_from_samples(
      "serve", "hot_8x100", /*warmup=*/0, /*iterations=*/1, hot8.latencies));
  artifact.cases.push_back(bench::result_from_samples(
      "serve", "hot_32x50", /*warmup=*/0, /*iterations=*/1, hot32.latencies));
  const std::string path = report::results_dir() + "/BENCH_serve.json";
  bench::write_artifact_file(path, artifact);
  std::cout << "  wrote " << path << "\n";
}

}  // namespace

GF_BENCH_MAIN(print_serve_throughput)
