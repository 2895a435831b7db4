/// \file load.cpp
/// The server under test and the closed-loop clients that drive it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "io/json.hpp"

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;

gf::serve::ServerOptions server_options() {
  gf::serve::ServerOptions options;
  options.workers = kWorkers;
  return options;
}

/// Client framing bounds: room for the largest batch response.
gf::serve::HttpLimits client_limits() {
  gf::serve::HttpLimits limits;
  limits.max_body_bytes = 256u << 20;
  return limits;
}

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

}  // namespace

Stack::Stack()
    : context(engine_options(kEngineThreads), kCacheCapacity, kCacheShards),
      server(gf::serve::make_router(context), server_options()) {
  server.start();
}

bool PhaseCounts::record(std::string failure) {
  ++attempted;
  if (failure.empty()) {
    return true;
  }
  ++failed;
  if (first_failure.empty()) {
    first_failure = std::move(failure);
  }
  return false;
}

PhaseCounts warm_pass(const Stack& stack, const Inputs& inputs, const Oracle& oracle) {
  PhaseCounts counts;
  gf::serve::HttpClient client("127.0.0.1", stack.server.port(), client_limits());
  for (const Request& request : inputs.requests) {
    const gf::serve::HttpResponse response =
        client.request("POST", request.target, request.body);
    counts.record(oracle.mismatch(request, response, CacheExpect::either));
  }
  return counts;
}

LoadResult closed_loop(const Stack& stack, const Inputs& inputs, const Oracle& oracle,
                       double seconds, std::size_t first) {
  std::atomic<std::size_t> cursor{first};
  std::vector<LoadResult> per_client(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (LoadResult& mine : per_client) {
    clients.emplace_back([&] {
      std::optional<gf::serve::HttpClient> client;
      while (Clock::now() < deadline) {
        const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
        const Request& request = inputs.requests[inputs.stream[next % inputs.stream.size()]];
        try {
          if (!client) {
            client.emplace("127.0.0.1", stack.server.port(), client_limits());
          }
          const Clock::time_point sent = Clock::now();
          const gf::serve::HttpResponse response =
              client->request("POST", request.target, request.body);
          const double latency_ms = elapsed_ms(sent);
          if (mine.counts.record(oracle.mismatch(request, response, inputs.run_cache))) {
            mine.completions.push_back({elapsed_ms(start) / 1e3, latency_ms});
          }
        } catch (const std::exception& error) {
          mine.counts.record(std::string("transport: ") + error.what());
          client.reset();
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  LoadResult merged;
  merged.window_s = elapsed_ms(start) / 1e3;
  merged.next = cursor.load();
  for (LoadResult& mine : per_client) {
    merged.counts.attempted += mine.counts.attempted;
    merged.counts.failed += mine.counts.failed;
    if (merged.counts.first_failure.empty()) {
      merged.counts.first_failure = std::move(mine.counts.first_failure);
    }
    merged.completions.insert(merged.completions.end(), mine.completions.begin(),
                              mine.completions.end());
  }
  std::sort(merged.completions.begin(), merged.completions.end(),
            [](const Completion& a, const Completion& b) { return a.done_s < b.done_s; });
  return merged;
}

CacheCounters fetch_stats(const Stack& stack) {
  gf::serve::HttpClient client("127.0.0.1", stack.server.port());
  const gf::serve::HttpResponse response = client.request("GET", "/v1/stats");
  if (response.status != 200) {
    throw std::runtime_error("GET /v1/stats answered " + std::to_string(response.status));
  }
  const gf::io::Json stats = gf::io::parse_json(response.body);
  const gf::io::Json& cache = stats.at("cache");
  const auto counter = [&cache](const char* name) {
    return static_cast<std::uint64_t>(cache.at(name).as_int());
  };
  return {counter("hits"), counter("misses"), counter("evictions")};
}

}  // namespace e2ebench
