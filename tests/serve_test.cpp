/// In-process tests of the `greenfpga serve` daemon: an ephemeral-port
/// server driven through the real socket client.  Pins the acceptance
/// contract -- POST /v1/run responses byte-identical to
/// `greenfpga run --format json` for all nine scenario kinds, cache
/// hits included -- plus the stats/platforms/health endpoints, graceful
/// 4xx errors (offending key named, depth bomb survived), and concurrent
/// keep-alive clients (raced under ASan+UBSan in CI).  The event-loop
/// regression suite drives raw sockets: a connected-but-never-reading
/// peer must not freeze accept or shedding, pipelined keep-alive
/// requests answer in order, half-received requests 408 out, and a
/// `--cache-dir` restart answers from disk with identical bytes.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/frontier_spec.hpp"
#include "io/hash.hpp"
#include "io/json.hpp"
#include "report/result_render.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"

namespace greenfpga::serve {
namespace {

using scenario::ScenarioKind;
using scenario::ScenarioSpec;

/// Small, fast specs, one per kind (mirrors the golden suite's shapes).
ScenarioSpec spec_for(ScenarioKind kind) {
  ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
  spec.name = "serve " + to_string(kind);
  switch (kind) {
    case ScenarioKind::sweep:
      spec.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 3, 3)};
      break;
    case ScenarioKind::grid:
      spec.axes = {scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e5, 1e6, 2),
                   scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years,
                                              0.5, 1.5, 2)};
      break;
    case ScenarioKind::timeline:
      spec.timeline.horizon_years = 10.0;
      spec.timeline.step_years = 1.0;
      break;
    case ScenarioKind::sensitivity:
      spec.sensitivity.samples = 16;
      break;
    case ScenarioKind::montecarlo:
      spec.montecarlo.samples = 8;
      break;
    case ScenarioKind::frontier:
      spec.platforms = {scenario::PlatformRef{.name = "asic"},
                        scenario::PlatformRef{.name = "fpga"},
                        scenario::PlatformRef{.name = "gpu"},
                        scenario::PlatformRef{.name = "cpu"}};
      spec.frontier.axes = {
          dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1, 3, 3),
          dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e5, 1e6, 2)};
      spec.frontier.confidence_samples = 4;
      break;
    case ScenarioKind::fleet:
      spec.fleet->mc_samples = 4;
      break;
    default:
      break;
  }
  return spec;
}

const std::vector<ScenarioKind>& all_kinds() {
  static const std::vector<ScenarioKind> kinds{
      ScenarioKind::compare,     ScenarioKind::sweep,     ScenarioKind::grid,
      ScenarioKind::timeline,    ScenarioKind::node_dse,  ScenarioKind::breakeven,
      ScenarioKind::sensitivity, ScenarioKind::montecarlo,
      ScenarioKind::frontier,    ScenarioKind::fleet};
  return kinds;
}

/// One running server + context per fixture instance.
class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : context_(scenario::EngineOptions{.threads = 1}, /*cache_capacity=*/64),
        server_(make_router(context_), ServerOptions{}) {
    server_.start();
  }
  ~ServeTest() override { server_.stop(); }

  [[nodiscard]] HttpClient client() { return HttpClient("127.0.0.1", server_.port()); }

  ServeContext context_;
  Server server_;
};

/// The exact bytes `greenfpga run --format json` prints for `spec`.
std::string cli_json_bytes(const ScenarioSpec& spec) {
  const scenario::Engine engine(scenario::EngineOptions{.threads = 1});
  std::ostringstream out;
  report::render_result(engine.run(spec), report::OutputFormat::json, out);
  return out.str();
}

TEST_F(ServeTest, HealthzReportsOk) {
  HttpClient http = client();
  const HttpResponse response = http.request("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(io::parse_json(response.body).at("status").as_string(), "ok");
}

TEST_F(ServeTest, PlatformsListsBuiltinsAndDomains) {
  HttpClient http = client();
  const HttpResponse response = http.request("GET", "/v1/platforms");
  EXPECT_EQ(response.status, 200);
  const io::Json body = io::parse_json(response.body);
  const io::Json::Array& platforms = body.at("platforms").as_array();
  ASSERT_EQ(platforms.size(), 5u);
  EXPECT_EQ(platforms[0].as_string(), "asic");
  EXPECT_EQ(platforms[1].as_string(), "chiplet_fpga");
  EXPECT_EQ(platforms[2].as_string(), "cpu");
  EXPECT_EQ(platforms[3].as_string(), "fpga");
  EXPECT_EQ(platforms[4].as_string(), "gpu");
  EXPECT_EQ(body.at("domains").size(), 3u);
}

TEST_F(ServeTest, UnknownPlatformAnswers400WithTheRegistryError) {
  // The PlatformRegistry::resolve message -- including the full list of
  // registered names -- must reach the HTTP client verbatim.
  HttpClient http = client();
  ScenarioSpec spec = spec_for(ScenarioKind::compare);
  spec.platforms = {scenario::PlatformRef{.name = "asic"},
                    scenario::PlatformRef{.name = "tpu"}};
  const HttpResponse response =
      http.request("POST", "/v1/run", scenario::spec_to_json(spec).dump());
  ASSERT_EQ(response.status, 400) << response.body;
  const std::string error = io::parse_json(response.body).at("error").as_string();
  EXPECT_NE(error.find("PlatformRegistry: unknown platform 'tpu'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("(registered: asic, chiplet_fpga, cpu, fpga, gpu)"),
            std::string::npos)
      << error;
}

TEST_F(ServeTest, RunIsByteIdenticalToCliJsonForAllKinds) {
  HttpClient http = client();
  for (const ScenarioKind kind : all_kinds()) {
    const ScenarioSpec spec = spec_for(kind);
    const std::string body = spec_to_json(spec).dump();
    const std::string expected = cli_json_bytes(spec);
    // Cold: a miss, byte-identical to the CLI.
    const HttpResponse first = http.request("POST", "/v1/run", body);
    ASSERT_EQ(first.status, 200) << to_string(kind) << ": " << first.body;
    EXPECT_EQ(first.header_or("x-cache"), "miss") << to_string(kind);
    EXPECT_EQ(first.body, expected) << to_string(kind);
    // Warm: a hit, still the same bytes.
    const HttpResponse second = http.request("POST", "/v1/run", body);
    ASSERT_EQ(second.status, 200) << to_string(kind);
    EXPECT_EQ(second.header_or("x-cache"), "hit") << to_string(kind);
    EXPECT_EQ(second.body, expected) << to_string(kind);
    EXPECT_EQ(second.header_or("x-cache-key"), first.header_or("x-cache-key"));
  }
}

TEST_F(ServeTest, RunAcceptsSpecFileDialectWithComments) {
  HttpClient http = client();
  const std::string body =
      "// a spec file POSTed verbatim\n" + spec_to_json(spec_for(ScenarioKind::compare)).dump();
  EXPECT_EQ(http.request("POST", "/v1/run", body).status, 200);
}

TEST_F(ServeTest, StatsCountsCacheAndRequests) {
  HttpClient http = client();
  const std::string body = spec_to_json(spec_for(ScenarioKind::compare)).dump();
  (void)http.request("POST", "/v1/run", body);
  (void)http.request("POST", "/v1/run", body);
  const HttpResponse response = http.request("GET", "/v1/stats");
  ASSERT_EQ(response.status, 200);
  const io::Json stats = io::parse_json(response.body);
  EXPECT_EQ(stats.at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("misses").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("size").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("capacity").as_number(), 64.0);
  EXPECT_EQ(stats.at("requests").as_number(), 3.0);
  EXPECT_EQ(stats.at("errors").as_number(), 0.0);
  // The warm request streamed the rendered bytes straight back.
  EXPECT_EQ(stats.at("fast_path_hits").as_number(), 1.0);
  // The process's worker pool: exactly these three lifetime counters.
  const io::Json& pool = stats.at("pool");
  EXPECT_EQ(pool.as_object().size(), 3u);
  EXPECT_GE(pool.at("helpers").as_number(), 0.0);
  EXPECT_GE(pool.at("tasks_run").as_number(), 0.0);
  EXPECT_GE(pool.at("tasks_inline").as_number(), 0.0);
}

TEST(ServeServer, LargeResponsesAreTheCliBytesAtAnyEngineWidth) {
  // A 40 x 40 grid answers about 1.9 MB: more than a socket buffer, so
  // the head + body send resumes part-way, and past the pool's cutoff,
  // so a wide engine writes the points in chunks.
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::grid, device::Domain::dnn);
  spec.axes = {scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 40),
               scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 3.0,
                                          40)};
  const std::string expected = cli_json_bytes(spec);
  const std::string body = spec_to_json(spec).dump();
  // Multi-MB bodies compare with EXPECT_TRUE(a == b): gtest's line diff of
  // two such strings would take minutes and gigabytes.
  for (const int threads : {1, 4}) {
    ServeContext context(scenario::EngineOptions{.threads = threads});
    Server server(make_router(context), ServerOptions{});
    server.start();
    HttpClient http("127.0.0.1", server.port());
    for (const char* cache : {"miss", "hit"}) {
      const HttpResponse response = http.request("POST", "/v1/run", body);
      ASSERT_EQ(response.status, 200) << response.body;
      EXPECT_EQ(response.header_or("x-cache"), cache) << "threads " << threads;
      EXPECT_TRUE(response.body == expected) << "threads " << threads;
    }
    const HttpResponse batch =
        http.request("POST", "/v1/batch", "{\"specs\": [" + body + "]}");
    ASSERT_EQ(batch.status, 200) << batch.body;
    EXPECT_TRUE(io::parse_json(batch.body).as_array().front().dump(2) + "\n" == expected)
        << "threads " << threads;
    server.stop();
  }
}

TEST_F(ServeTest, CacheHitStreamsRenderedBodyWithoutRedump) {
  HttpClient http = client();
  const ScenarioSpec spec = spec_for(ScenarioKind::compare);
  const std::string compact = spec_to_json(spec).dump(0);
  const std::string pretty = spec_to_json(spec).dump(2);

  const HttpResponse cold = http.request("POST", "/v1/run", compact);
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_EQ(cold.header_or("x-cache"), "miss");
  EXPECT_EQ(context_.fast_path_hits.load(), 0u);
  EXPECT_EQ(context_.cache().stats().size, 1u);

  // Warm, same bytes: a cache hit on an entry holding its bytes, the
  // response byte-identical to the cold render.
  const HttpResponse warm = http.request("POST", "/v1/run", compact);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.header_or("x-cache"), "hit");
  EXPECT_EQ(warm.body, cold.body);
  EXPECT_EQ(context_.fast_path_hits.load(), 1u);

  // A formatting variant of the same spec normalizes to the same content
  // key, so it is answered from the stored bytes too.
  const HttpResponse variant = http.request("POST", "/v1/run", pretty);
  ASSERT_EQ(variant.status, 200);
  EXPECT_EQ(variant.header_or("x-cache"), "hit");
  EXPECT_EQ(variant.body, cold.body);
  EXPECT_EQ(context_.fast_path_hits.load(), 2u);
  EXPECT_EQ(context_.cache().stats().size, 1u);

  // The cache-key header is the engine key's digest, identical across
  // all three; the request digest tracks the POSTed bytes (facade dumps
  // emit sorted keys, so hash-while-parse always lands).
  EXPECT_EQ(warm.header_or("x-cache-key"), cold.header_or("x-cache-key"));
  EXPECT_EQ(variant.header_or("x-cache-key"), cold.header_or("x-cache-key"));
  EXPECT_FALSE(cold.header_or("x-request-digest").empty());
  EXPECT_EQ(warm.header_or("x-request-digest"), cold.header_or("x-request-digest"));
  // The digest streams canonical bytes, so formatting never changes it.
  EXPECT_EQ(variant.header_or("x-request-digest"), cold.header_or("x-request-digest"));
}

TEST_F(ServeTest, BatchEntryIsAHitThatRendersOnceThenStreamsItsBytes) {
  HttpClient http = client();
  const ScenarioSpec spec = spec_for(ScenarioKind::compare);
  io::Json request = io::Json::object();
  io::Json specs = io::Json::array();
  specs.push_back(spec_to_json(spec));
  request["specs"] = std::move(specs);
  ASSERT_EQ(http.request("POST", "/v1/batch", request.dump()).status, 200);

  // The batch cached the result without its bytes: the run is a hit that
  // renders them, so it does not count as a fast-path hit ...
  const std::string body = spec_to_json(spec).dump();
  const std::string expected = cli_json_bytes(spec);
  const HttpResponse first = http.request("POST", "/v1/run", body);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(first.header_or("x-cache"), "hit");
  EXPECT_EQ(first.body, expected);
  EXPECT_EQ(context_.fast_path_hits.load(), 0u);

  // ... and attaches them, so the next identical run streams them.
  const HttpResponse second = http.request("POST", "/v1/run", body);
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(second.header_or("x-cache"), "hit");
  EXPECT_EQ(second.body, expected);
  EXPECT_EQ(context_.fast_path_hits.load(), 1u);
  const scenario::ResultCacheStats stats = context_.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ServeServer, EvictedEntryIsAMissWithIdenticalBytes) {
  // One entry in total: the second spec evicts the first, bytes and all.
  ServeContext context(scenario::EngineOptions{.threads = 1}, /*cache_capacity=*/1,
                       /*cache_shards=*/1);
  Server server(make_router(context), ServerOptions{});
  server.start();
  HttpClient http("127.0.0.1", server.port());
  const std::string a = spec_to_json(spec_for(ScenarioKind::compare)).dump();
  const std::string b = spec_to_json(spec_for(ScenarioKind::breakeven)).dump();
  const HttpResponse first = http.request("POST", "/v1/run", a);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(first.header_or("x-cache"), "miss");
  ASSERT_EQ(http.request("POST", "/v1/run", b).status, 200);
  const HttpResponse again = http.request("POST", "/v1/run", a);
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_EQ(again.header_or("x-cache"), "miss");
  EXPECT_EQ(again.body, first.body);
  EXPECT_EQ(again.body, cli_json_bytes(spec_for(ScenarioKind::compare)));
  const scenario::ResultCacheStats stats = context.cache().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(context.fast_path_hits.load(), 0u);
  server.stop();
}

TEST_F(ServeTest, MalformedBodiesAnswer400WithTheParserMessage) {
  HttpClient http = client();
  struct Case {
    std::string body;
    std::string error;
  };
  const std::vector<Case> cases = {
      {R"({"kind": "compare", "kind": "sweep"})",
       "JSON parse error at 1:27: duplicate object key"},
      {R"({"kind": "compare", "domain": )", "JSON parse error at 1:31: unexpected end of input"},
      {std::string(100'000, '['), "JSON parse error at 1:257: nesting depth exceeds 256"},
  };
  for (const Case& c : cases) {
    for (const char* target : {"/v1/run", "/v1/batch"}) {
      const HttpResponse response = http.request("POST", target, c.body);
      EXPECT_EQ(response.status, 400) << target << ": " << response.body;
      EXPECT_EQ(io::parse_json(response.body).at("error").as_string(), c.error) << target;
    }
  }
}

TEST_F(ServeTest, RequestDigestOnlyForSortedKeys) {
  HttpClient http = client();
  // A canonical body: the header is the digest of its own compact bytes.
  const std::string canonical = spec_to_json(spec_for(ScenarioKind::compare)).dump(0);
  const HttpResponse sorted = http.request("POST", "/v1/run", canonical);
  ASSERT_EQ(sorted.status, 200) << sorted.body;
  EXPECT_EQ(sorted.header_or("x-request-digest"), io::content_digest(canonical));
  // Out-of-order keys ("kind" before "domain"): parsed, but no digest.
  const HttpResponse unsorted =
      http.request("POST", "/v1/run", R"({"kind": "compare", "domain": "dnn"})");
  ASSERT_EQ(unsorted.status, 200) << unsorted.body;
  EXPECT_EQ(unsorted.header_or("x-request-digest"), "");
  EXPECT_FALSE(unsorted.header_or("x-cache-key").empty());
}

TEST_F(ServeTest, BatchMatchesIndividualRunsAndDedups) {
  HttpClient http = client();
  const ScenarioSpec a = spec_for(ScenarioKind::compare);
  const ScenarioSpec b = spec_for(ScenarioKind::breakeven);
  io::Json request = io::Json::object();
  io::Json specs = io::Json::array();
  specs.push_back(spec_to_json(a));
  specs.push_back(spec_to_json(b));
  specs.push_back(spec_to_json(a));  // repeated: evaluated once
  request["specs"] = std::move(specs);
  const HttpResponse response = http.request("POST", "/v1/batch", request.dump());
  ASSERT_EQ(response.status, 200) << response.body;
  const io::Json results = io::parse_json(response.body);
  ASSERT_EQ(results.size(), 3u);
  const scenario::Engine cold(scenario::EngineOptions{.threads = 1});
  EXPECT_EQ(results.at(std::size_t{0}).dump(),
            scenario::result_to_json(cold.run(a)).dump());
  EXPECT_EQ(results.at(std::size_t{1}).dump(),
            scenario::result_to_json(cold.run(b)).dump());
  EXPECT_EQ(results.at(std::size_t{2}).dump(), results.at(std::size_t{0}).dump());
  // The repeat was deduplicated: two distinct keys -> two misses.
  EXPECT_EQ(context_.cache().stats().misses, 2u);
}

TEST_F(ServeTest, BadSpecAnswers400NamingTheOffendingKey) {
  HttpClient http = client();
  const HttpResponse response =
      http.request("POST", "/v1/run", R"({"kind": "compare", "bogus_key": 1})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(io::parse_json(response.body).at("error").as_string().find("bogus_key"),
            std::string::npos)
      << response.body;
  // Bad batch entries name the index.
  const HttpResponse batch =
      http.request("POST", "/v1/batch", R"({"specs": [{"kind": "nope"}]})");
  EXPECT_EQ(batch.status, 400);
  EXPECT_NE(io::parse_json(batch.body).at("error").as_string().find("specs[0]"),
            std::string::npos)
      << batch.body;
}

TEST_F(ServeTest, OversampledTimelineAnswers400NamingTheLimit) {
  // horizon / step overflows the sample count: a client error, not a 500.
  HttpClient http = client();
  const HttpResponse response = http.request(
      "POST", "/v1/run",
      R"({"kind":"timeline","timeline":{"horizon_years":1e7,"step_years":1e-3}})");
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_NE(io::parse_json(response.body).at("error").as_string().find("at most 1000000"),
            std::string::npos)
      << response.body;
}

TEST_F(ServeTest, AppCountAxisPastTheScheduleBoundAnswers400) {
  // 4e8 applications per point used to die of std::bad_alloc: a 500, or
  // the daemon's memory.  It is a client error naming the axis and limit.
  HttpClient http = client();
  const HttpResponse response = http.request(
      "POST", "/v1/run",
      R"({"kind":"sweep","domain":"dnn","axes":[{"variable":"app_count","scale":"linear","from":1,"to":4e8,"count":2}]})");
  EXPECT_EQ(response.status, 400) << response.body;
  const std::string error = io::parse_json(response.body).at("error").as_string();
  EXPECT_NE(error.find("axis app_count value 400000000 rounds"), std::string::npos) << error;
  EXPECT_NE(error.find("[1, 1000000]"), std::string::npos) << error;
}

TEST_F(ServeTest, FrontierAppCountAxisPastTheScheduleBoundAnswers400) {
  // The frontier kind's app_count axis had no bound: 4e8 applications per
  // cell died of std::bad_alloc, a 500.
  HttpClient http = client();
  const HttpResponse response = http.request(
      "POST", "/v1/run",
      R"({"kind":"frontier","domain":"dnn","frontier":{"axes":[{"variable":"app_count","scale":"linear","from":1,"to":4e8,"count":2},{"variable":"volume","scale":"log","from":1e4,"to":1e6,"count":2}]}})");
  EXPECT_EQ(response.status, 400) << response.body;
  const std::string error = io::parse_json(response.body).at("error").as_string();
  EXPECT_NE(error.find("axis app_count value 400000000 rounds outside [1, 1000000]"),
            std::string::npos)
      << error;
}

TEST_F(ServeTest, ApplicationNeedingMoreThanIntMaxFpgasAnswers400) {
  // The FPGA count used to overflow an int (undefined behaviour) and fail
  // with an unrelated "negative power" error.
  HttpClient http = client();
  const HttpResponse response = http.request(
      "POST", "/v1/run",
      R"({"kind":"compare","domain":"dnn","schedule":{"applications":[{"name":"huge","size_gates":1e300}]}})");
  EXPECT_EQ(response.status, 400) << response.body;
  const std::string error = io::parse_json(response.body).at("error").as_string();
  EXPECT_NE(error.find("an application of 1e+300 gates needs more than 2147483647 FPGAs"),
            std::string::npos)
      << error;
}

TEST_F(ServeTest, DepthBombAnswers400WithoutCrashing) {
  HttpClient http = client();
  const std::string bomb(100'000, '[');
  const HttpResponse response = http.request("POST", "/v1/run", bomb);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(io::parse_json(response.body).at("error").as_string().find("nesting depth"),
            std::string::npos)
      << response.body;
  // The daemon survived: the same connection keeps serving.
  EXPECT_EQ(http.request("GET", "/healthz").status, 200);
}

TEST_F(ServeTest, UnknownRoutesAnswer404And405) {
  HttpClient http = client();
  EXPECT_EQ(http.request("GET", "/nope").status, 404);
  const HttpResponse wrong_method = http.request("GET", "/v1/run");
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(wrong_method.header_or("allow"), "POST");
}

TEST_F(ServeTest, OversizedBodyAnswers413) {
  // Over the 8 MiB ingestion bound: rejected at the framing layer.
  HttpClient http = client();
  const std::string huge(9 * 1024 * 1024, 'x');
  const HttpResponse response = http.request("POST", "/v1/run", huge);
  EXPECT_EQ(response.status, 413);
}

TEST_F(ServeTest, ConcurrentClientsGetIdenticalBytes) {
  constexpr int kClients = 6;
  constexpr int kRequests = 8;
  const ScenarioSpec spec = spec_for(ScenarioKind::compare);
  const std::string body = spec_to_json(spec).dump();
  const std::string expected = cli_json_bytes(spec);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        HttpClient http("127.0.0.1", server_.port());
        for (int r = 0; r < kRequests; ++r) {
          const HttpResponse response = http.request("POST", "/v1/run", body);
          if (response.status != 200 || response.body != expected) {
            failures[c] = "client " + std::to_string(c) + " request " +
                          std::to_string(r) + ": status " +
                          std::to_string(response.status);
            return;
          }
        }
      } catch (const std::exception& error) {
        failures[c] = error.what();
      }
    });
  }
  for (std::thread& worker : clients) {
    worker.join();
  }
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  const scenario::ResultCacheStats stats = context_.cache().stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kClients) * kRequests);
  EXPECT_EQ(stats.size, 1u);  // one distinct spec
}

/// A raw TCP connection for driving the server below the HttpClient
/// abstraction: malformed bytes, pipelined writes, silent peers.
class RawSocket {
 public:
  /// `receive_buffer` > 0 shrinks SO_RCVBUF before connecting, so the
  /// server's sends stall (EAGAIN) on any response much larger than it.
  explicit RawSocket(int port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (receive_buffer > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer, sizeof receive_buffer);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("RawSocket: connect failed");
    }
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawSocket() { close(); }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_bytes(const std::string& bytes) const {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Everything received until the server closes (or the 5 s guard).
  [[nodiscard]] std::string read_until_close() const {
    std::string received;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        break;
      }
      received.append(chunk, static_cast<std::size_t>(n));
    }
    return received;
  }

 private:
  int fd_ = -1;
};

TEST(ServeServer, ASlowReaderGetsTheWholeResponseAcrossPartialSends) {
  // A ~5.7 MB body (more than Linux's 4 MB send-buffer ceiling) to a
  // peer with a tiny receive window: the head + body send stops part-way
  // and resumes from where it stopped.
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::grid, device::Domain::dnn);
  spec.axes = {scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 70),
               scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 3.0,
                                          70)};
  const std::string body = spec_to_json(spec).dump();
  ServeContext context(scenario::EngineOptions{.threads = 2});
  Server server(make_router(context), ServerOptions{});
  server.start();
  RawSocket raw(server.port(), /*receive_buffer=*/4096);
  raw.send_bytes("POST /v1/run HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // let the sends stall
  const std::string received = raw.read_until_close();
  const std::size_t head_end = received.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(received.substr(0, 15), "HTTP/1.1 200 OK");
  EXPECT_TRUE(received.substr(head_end + 4) == cli_json_bytes(spec))  // not EXPECT_EQ: 5.7 MB
      << received.size() << " bytes received";
  server.stop();
}

TEST(ServeServer, NeverReadingPeerDoesNotFreezeAcceptOrShedding) {
  // The old acceptor's 503 overload path wrote to the shed peer while
  // holding the connection lock with no send timeout: one connected
  // peer that never read froze accept and reaping for everyone.  With
  // max_connections=1 the single slot is held by a silent peer and a
  // second silent peer is shed -- and reading clients must still get
  // prompt answers throughout.
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  ServerOptions options;
  options.max_connections = 1;
  Server server(make_router(context), options);
  server.start();

  RawSocket slot_holder(server.port());  // occupies the only slot, stays silent
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RawSocket shed_and_silent(server.port());  // shed; never reads its 503
  // Reading clients are shed promptly -- accept never blocked.
  for (int i = 0; i < 3; ++i) {
    const RawSocket reader(server.port());
    const std::string answer = reader.read_until_close();
    EXPECT_NE(answer.find("HTTP/1.1 503"), std::string::npos) << answer;
    EXPECT_NE(answer.find("connection limit reached"), std::string::npos) << answer;
  }
  // Freeing the slot un-sheds: the next client is served normally.
  slot_holder.close();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    HttpClient http("127.0.0.1", server.port());
    status = http.request("GET", "/healthz").status;
    if (status == 200) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(status, 200);
}

TEST(ServeServer, RequestLineWithSpacedTargetAnswers400) {
  // `rfind(' ')` parsing used to silently accept `GET /a b HTTP/1.1` as
  // target "/a b"; a spaced request line is malformed and must be 400.
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  Server server(make_router(context), ServerOptions{});
  server.start();
  RawSocket raw(server.port());
  raw.send_bytes("GET /a b HTTP/1.1\r\nhost: t\r\n\r\n");
  const std::string answer = raw.read_until_close();
  EXPECT_NE(answer.find("HTTP/1.1 400"), std::string::npos) << answer;
  EXPECT_NE(answer.find("malformed request line"), std::string::npos) << answer;
}

TEST(ServeServer, PipelinedKeepAliveRequestsAnswerInOrder) {
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  Server server(make_router(context), ServerOptions{});
  server.start();
  RawSocket raw(server.port());
  raw.send_bytes(
      "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n"
      "GET /v1/platforms HTTP/1.1\r\nhost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
  const std::string answer = raw.read_until_close();
  // Three responses, in request order, on the one connection.
  const std::size_t first = answer.find("HTTP/1.1 200 OK");
  ASSERT_NE(first, std::string::npos) << answer;
  const std::size_t ok1 = answer.find("\"status\": \"ok\"", first);
  ASSERT_NE(ok1, std::string::npos) << answer;
  const std::size_t platforms = answer.find("\"platforms\"", ok1);
  ASSERT_NE(platforms, std::string::npos) << answer;
  const std::size_t ok2 = answer.find("\"status\": \"ok\"", platforms);
  ASSERT_NE(ok2, std::string::npos) << answer;
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(ServeServer, HalfReceivedRequestTimesOutWith408) {
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  ServerOptions options;
  options.io_timeout_ms = 200;
  Server server(make_router(context), options);
  server.start();
  RawSocket raw(server.port());
  raw.send_bytes("GET /healthz HTT");  // and then silence
  const std::string answer = raw.read_until_close();
  EXPECT_NE(answer.find("HTTP/1.1 408"), std::string::npos) << answer;
  EXPECT_NE(answer.find("request timed out"), std::string::npos) << answer;
}

TEST(ServeServer, IdleKeepAliveConnectionsAreReaped) {
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  ServerOptions options;
  options.idle_timeout_ms = 150;
  Server server(make_router(context), options);
  server.start();
  RawSocket raw(server.port());
  raw.send_bytes("GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
  // One answer arrives, then the idle sweep closes the connection --
  // read_until_close returning (instead of hanging to its 5 s guard
  // after one response) is the reap.
  const std::string answer = raw.read_until_close();
  EXPECT_NE(answer.find("HTTP/1.1 200 OK"), std::string::npos) << answer;
  EXPECT_NE(answer.find("\"status\": \"ok\""), std::string::npos) << answer;
}

TEST(ServeServer, CacheDirSurvivesRestartWithIdenticalBytes) {
  const std::string dir = ::testing::TempDir() + "/greenfpga_serve_cache_dir";
  std::filesystem::remove_all(dir);
  const ScenarioSpec spec = spec_for(ScenarioKind::compare);
  const std::string body = spec_to_json(spec).dump();
  const std::string expected = cli_json_bytes(spec);
  {
    ServeContext context(scenario::EngineOptions{.threads = 1}, 64, 8, dir);
    Server server(make_router(context), ServerOptions{});
    server.start();
    HttpClient http("127.0.0.1", server.port());
    const HttpResponse response = http.request("POST", "/v1/run", body);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.header_or("x-cache"), "miss");
    EXPECT_EQ(response.body, expected);
    server.stop();
  }
  // A brand-new daemon over the same directory: the answer comes from
  // the disk tier -- a hit, byte-identical, engine never re-runs.
  {
    ServeContext context(scenario::EngineOptions{.threads = 1}, 64, 8, dir);
    Server server(make_router(context), ServerOptions{});
    server.start();
    HttpClient http("127.0.0.1", server.port());
    const HttpResponse response = http.request("POST", "/v1/run", body);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.header_or("x-cache"), "hit");
    EXPECT_EQ(response.body, expected);
    const scenario::ResultCacheStats stats = context.cache().stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(RequestFramerTest, FramesIncrementallyAndPipelined) {
  RequestFramer framer;
  HttpRequest request;
  std::string buffer;
  const std::string post =
      "POST /v1/run HTTP/1.1\r\ncontent-length: 4\r\n\r\nspec";
  // Byte-at-a-time arrival: no request until the last body byte lands.
  for (std::size_t i = 0; i + 1 < post.size(); ++i) {
    buffer.push_back(post[i]);
    EXPECT_FALSE(framer.next(buffer, request)) << "byte " << i;
  }
  buffer.push_back(post.back());
  ASSERT_TRUE(framer.next(buffer, request));
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/run");
  EXPECT_EQ(request.body, "spec");
  EXPECT_TRUE(buffer.empty());
  // Two pipelined requests in one burst: consumed one `next` at a time.
  buffer = "GET /a HTTP/1.1\r\n\r\nGET /b?x=1 HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(framer.next(buffer, request));
  EXPECT_EQ(request.target, "/a");
  ASSERT_TRUE(framer.next(buffer, request));
  EXPECT_EQ(request.target, "/b");
  EXPECT_EQ(request.query, "x=1");
  EXPECT_FALSE(framer.next(buffer, request));
  EXPECT_FALSE(framer.mid_request(buffer));
}

TEST(RequestFramerTest, RejectsMalformedRequestLines) {
  HttpRequest request;
  for (const std::string& line :
       {std::string("GET /a b HTTP/1.1"), std::string("GET /a"),
        std::string("GET  /a HTTP/1.1"), std::string("GET /a HTTP/2.0")}) {
    RequestFramer framer;
    std::string buffer = line + "\r\n\r\n";
    EXPECT_THROW((void)framer.next(buffer, request), HttpError) << line;
  }
  // Relative targets only: no authority-form or garbage.
  RequestFramer framer;
  std::string buffer = "GET example.com HTTP/1.1\r\n\r\n";
  EXPECT_THROW((void)framer.next(buffer, request), HttpError);
}

TEST(ServeServer, StopUnblocksIdleConnectionsAndIsIdempotent) {
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  Server server(make_router(context), ServerOptions{});
  server.start();
  HttpClient http("127.0.0.1", server.port());
  EXPECT_EQ(http.request("GET", "/healthz").status, 200);
  // The client's keep-alive connection is idle inside the server now.
  server.stop();
  server.stop();  // idempotent
  EXPECT_GE(server.requests_served(), 1u);
}

TEST(ServeServer, EphemeralPortsAreIndependent) {
  ServeContext context(scenario::EngineOptions{.threads = 1}, 4);
  Server first(make_router(context), ServerOptions{});
  Server second(make_router(context), ServerOptions{});
  first.start();
  second.start();
  EXPECT_NE(first.port(), second.port());
  HttpClient http("127.0.0.1", second.port());
  EXPECT_EQ(http.request("GET", "/healthz").status, 200);
}

}  // namespace
}  // namespace greenfpga::serve
