/// \file cases.cpp
/// The built-in bench case registry: the six hot paths the repo tracks
/// per-PR as BENCH_<group>.json baselines.
///
/// Every case fixes its workload *shape* permanently -- `--quick` only
/// reduces repetitions -- so a median measured in any mode is comparable
/// against the checked-in baseline.  Engines run with threads = 1: the
/// baselines measure single-worker cost, which is what scheduling and
/// model changes move, and stays meaningful on single-core CI runners.

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "dse/frontier_spec.hpp"
#include "io/json.hpp"
#include "io/json_arena.hpp"
#include "io/json_detail.hpp"
#include "scenario/engine.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"

namespace greenfpga::bench {

namespace {

scenario::Engine single_thread_engine() {
  return scenario::Engine(scenario::EngineOptions{.threads = 1});
}

/// The 50x50 DNN volume x lifetime heat-map (the engine_throughput
/// driver's grid): 2500 points x 2 platforms through the memoised
/// embodied-carbon path.
scenario::ScenarioSpec grid_spec() {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::grid, device::Domain::dnn);
  spec.name = "bench engine grid";
  spec.axes = {
      scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 50),
      scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5, 50)};
  return spec;
}

/// 256 Table 1 Monte-Carlo samples x 2 platforms: every sample
/// re-parameterises the suite, so this is the unmemoised full-evaluation
/// path.
scenario::ScenarioSpec mc_spec() {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::montecarlo, device::Domain::dnn);
  spec.name = "bench mc";
  spec.montecarlo.samples = 256;
  spec.montecarlo.seed = 42;
  return spec;
}

/// The four-way 16x12 DNN frontier: 192 cells x 4 platforms through the
/// memoised search, plus winner/slice/boundary extraction.
scenario::ScenarioSpec frontier_spec() {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::frontier, device::Domain::dnn);
  spec.name = "bench frontier";
  spec.platforms = {scenario::PlatformRef{.name = "asic", .chip = {}},
                    scenario::PlatformRef{.name = "fpga", .chip = {}},
                    scenario::PlatformRef{.name = "gpu", .chip = {}},
                    scenario::PlatformRef{.name = "cpu", .chip = {}}};
  spec.frontier.axes = {
      dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1, 16, 16),
      dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e3, 1e7, 12)};
  return spec;
}

/// A fleet shaped like examples/specs/batch_manifest.json -- three-way
/// compare, 16-point sweep, 25x24 grid, node DSE, Monte-Carlo -- built in
/// code so the case does not depend on the working directory.
std::vector<scenario::ScenarioSpec> fleet_specs() {
  std::vector<scenario::ScenarioSpec> specs;
  scenario::ScenarioSpec compare = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::compare, device::Domain::crypto);
  compare.platforms = {scenario::PlatformRef{.name = "asic", .chip = {}},
                       scenario::PlatformRef{.name = "fpga", .chip = {}},
                       scenario::PlatformRef{.name = "gpu", .chip = {}}};
  specs.push_back(std::move(compare));
  scenario::ScenarioSpec sweep = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::sweep, device::Domain::imgproc);
  sweep.axes = {
      scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 16, 16)};
  specs.push_back(std::move(sweep));
  scenario::ScenarioSpec grid =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::grid, device::Domain::dnn);
  grid.axes = {
      scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 25),
      scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5, 24)};
  specs.push_back(std::move(grid));
  specs.push_back(scenario::ScenarioSpec::make(scenario::ScenarioKind::node_dse,
                                               device::Domain::dnn));
  scenario::ScenarioSpec mc = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::montecarlo, device::Domain::dnn);
  mc.montecarlo.samples = 128;
  mc.montecarlo.seed = 7;
  specs.push_back(std::move(mc));
  return specs;
}

/// One small spec per registered scenario kind, enumerated from the kind
/// registry itself: the case exercises every KindModule execute hook
/// through the vtable dispatch path and automatically covers kinds added
/// later.  Sampling counts are pinned low so the case tracks dispatch
/// and per-kind fixed cost, not Monte-Carlo bulk.
std::vector<scenario::ScenarioSpec> registry_specs() {
  std::vector<scenario::ScenarioSpec> specs;
  for (const scenario::KindModule* module : scenario::all_kind_modules()) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::make(module->kind, device::Domain::dnn);
    spec.name = "bench registry " + std::string(module->name);
    spec.montecarlo.samples = 16;
    spec.montecarlo.seed = 11;
    spec.sensitivity.samples = 16;
    if (spec.fleet.has_value()) {
      spec.fleet->mc_samples = 8;
    }
    if (module->expected_axes >= 1) {
      spec.axes.push_back(
          scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 4, 4));
    }
    if (module->expected_axes >= 2) {
      spec.axes.push_back(
          scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e5, 1e6, 3));
    }
    if (module->kind == scenario::ScenarioKind::frontier) {
      spec.frontier.axes = {
          dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1, 4, 4),
          dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e4, 1e6, 3)};
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The 25x24 grid's canonical result JSON: the "large result" the serve
/// and batch paths round-trip per request (~hundreds of KB of text).
std::string large_result_text() {
  const scenario::ScenarioSpec spec = fleet_specs()[2];
  const scenario::ScenarioResult result = single_thread_engine().run(spec);
  return scenario::result_bytes(result);
}

/// The serve request shape: one spec document as a client would POST it
/// to /v1/run (pretty form, the same bytes `greenfpga run` reads from a
/// file).  Small -- a few KB -- so these cases track per-request fixed
/// cost, not bulk throughput.
std::string spec_request_text() { return scenario::spec_to_json(grid_spec()).dump(); }

/// The /v1/batch request shape: a manifest with the five fleet specs
/// embedded, as POSTed to the daemon.
std::string batch_manifest_text() {
  io::Json manifest = io::Json::object();
  manifest["name"] = "bench fleet";
  io::Json specs = io::Json::array();
  for (const scenario::ScenarioSpec& spec : fleet_specs()) {
    specs.push_back(scenario::spec_to_json(spec));
  }
  manifest["specs"] = std::move(specs);
  return manifest.dump();
}

volatile std::size_t g_sink = 0;  ///< defeats dead-code elimination

}  // namespace

std::vector<BenchCase> builtin_cases() {
  std::vector<BenchCase> cases;

  cases.push_back(BenchCase{
      .group = "engine",
      .name = "grid_50x50",
      .description = "Engine::run of a 50x50 DNN volume x lifetime heat-map "
                     "(2500 points x 2 platforms, memoised embodied carbon, 1 thread)",
      .setup = [] {
        auto engine = std::make_shared<scenario::Engine>(single_thread_engine());
        auto spec = std::make_shared<scenario::ScenarioSpec>(grid_spec());
        return PreparedCase{.op =
                                [engine, spec] {
                                  const scenario::ScenarioResult result =
                                      engine->run(*spec);
                                  g_sink = result.points.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = 0.0};
      }});

  cases.push_back(BenchCase{
      .group = "engine",
      .name = "registry_dispatch",
      .description = "Engine::run of one small spec per registered scenario kind "
                     "(every KindModule execute hook through the registry vtable, "
                     "1 thread)",
      .setup = [] {
        auto engine = std::make_shared<scenario::Engine>(single_thread_engine());
        auto specs =
            std::make_shared<std::vector<scenario::ScenarioSpec>>(registry_specs());
        return PreparedCase{.op =
                                [engine, specs] {
                                  std::size_t sink = 0;
                                  for (const scenario::ScenarioSpec& spec : *specs) {
                                    sink += engine->run(spec).points.size();
                                  }
                                  g_sink = sink;
                                },
                            .iterations = 1,
                            .bytes_per_op = 0.0};
      }});

  cases.push_back(BenchCase{
      .group = "engine",
      .name = "cache_key",
      .description = "Engine::cache_key of the 50x50 grid spec: prepare + the compact "
                     "{platforms, spec} content key streamed with no DOM",
      .setup = [] {
        auto engine = std::make_shared<scenario::Engine>(single_thread_engine());
        auto spec = std::make_shared<scenario::ScenarioSpec>(grid_spec());
        const double bytes = static_cast<double>(engine->cache_key(*spec).size());
        return PreparedCase{.op =
                                [engine, spec] {
                                  g_sink = engine->cache_key(*spec).size();
                                },
                            .iterations = 64,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "mc",
      .name = "samples_256",
      .description = "Engine::run of a 256-sample DNN Monte-Carlo uncertainty spec "
                     "(full unmemoised evaluation per sample, 1 thread)",
      .setup = [] {
        auto engine = std::make_shared<scenario::Engine>(single_thread_engine());
        auto spec = std::make_shared<scenario::ScenarioSpec>(mc_spec());
        return PreparedCase{.op =
                                [engine, spec] {
                                  const scenario::ScenarioResult result =
                                      engine->run(*spec);
                                  g_sink = result.uncertainty->sample_totals_kg.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = 0.0};
      }});

  cases.push_back(BenchCase{
      .group = "frontier",
      .name = "four_way_16x12",
      .description = "Engine::run of a four-way (asic/fpga/gpu/cpu) DNN frontier "
                     "search over a 16x12 apps x volume grid (192 cells, winner + "
                     "slice + boundary extraction, 1 thread)",
      .setup = [] {
        auto engine = std::make_shared<scenario::Engine>(single_thread_engine());
        auto spec = std::make_shared<scenario::ScenarioSpec>(frontier_spec());
        return PreparedCase{.op =
                                [engine, spec] {
                                  const scenario::ScenarioResult result =
                                      engine->run(*spec);
                                  g_sink = result.frontier->cells.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = 0.0};
      }});

  cases.push_back(BenchCase{
      .group = "batch",
      .name = "fleet_mixed",
      .description = "Engine::run_batch of a 5-spec fleet shaped like "
                     "examples/specs/batch_manifest.json (compare, sweep, 25x24 grid, "
                     "node DSE, 128-sample MC; 1 thread)",
      .setup = [] {
        auto engine = std::make_shared<scenario::Engine>(single_thread_engine());
        auto specs =
            std::make_shared<std::vector<scenario::ScenarioSpec>>(fleet_specs());
        return PreparedCase{.op =
                                [engine, specs] {
                                  const std::vector<scenario::ScenarioResult> results =
                                      engine->run_batch(*specs);
                                  g_sink = results.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = 0.0};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "parse_result",
      .description = "io::parse_json_arena of a large canonical result document "
                     "(25x24 grid result); no production path parses with the arena",
      .setup = [] {
        auto text = std::make_shared<std::string>(large_result_text());
        return PreparedCase{.op =
                                [text] {
                                  const io::JsonDocument parsed =
                                      io::parse_json_arena(*text);
                                  g_sink = parsed.root().size();
                                },
                            .iterations = 1,
                            .bytes_per_op = static_cast<double>(text->size())};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "parse_result_facade",
      .description = "io::parse_json of the same large result document into the "
                     "mutable Json facade (the result re-import path)",
      .setup = [] {
        auto text = std::make_shared<std::string>(large_result_text());
        return PreparedCase{.op =
                                [text] {
                                  const io::Json parsed = io::parse_json(*text);
                                  g_sink = parsed.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = static_cast<double>(text->size())};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "dump_result",
      .description = "io::Json::dump (compact) of the same large canonical result "
                     "document",
      .setup = [] {
        auto document =
            std::make_shared<io::Json>(io::parse_json(large_result_text()));
        const double bytes = static_cast<double>(document->dump(0).size());
        return PreparedCase{.op =
                                [document] {
                                  const std::string text = document->dump(0);
                                  g_sink = text.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "result_write_grid50",
      .description = "scenario::result_bytes (pretty) of the 50x50 grid result -- the "
                     "render stage of a large /v1/run miss: the kind modules write "
                     "the canonical bytes with no result DOM",
      .setup = [] {
        auto result = std::make_shared<const scenario::ScenarioResult>(
            single_thread_engine().run(grid_spec()));
        const double bytes = static_cast<double>(scenario::result_bytes(*result).size());
        return PreparedCase{.op =
                                [result] {
                                  const std::string text = scenario::result_bytes(*result);
                                  g_sink = text.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "result_write_grid50_chunked",
      .description = "scenario::result_document of the same 50x50 grid result at 2 "
                     "threads -- the serve render call, plus the one gather of its "
                     "buffers into a string: the points array in two chunks, the second "
                     "on a pool helper's continuation writer, whose buffers the caller's "
                     "writer takes over at the splice",
      .setup = [] {
        auto result = std::make_shared<const scenario::ScenarioResult>(
            single_thread_engine().run(grid_spec()));
        const double bytes =
            static_cast<double>(scenario::result_document(*result, 2).size());
        return PreparedCase{.op =
                                [result] {
                                  const std::string text =
                                      scenario::result_document(*result, 2);
                                  g_sink = text.size();
                                },
                            .iterations = 1,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "format_number_misses",
      .description = "io::detail::format_number_to over 65536 distinct seeded doubles "
                     "shaped like result numbers (16-17 significant digits, 1e-4 .. "
                     "1e8), 32x the per-thread memo's slots, so nearly every call "
                     "misses the memo and runs the shortest-digits kernel; divide by "
                     "65536 for the cost of one miss",
      .setup = [] {
        auto values = std::make_shared<std::vector<double>>();
        std::mt19937_64 rng(25);
        std::uniform_real_distribution<double> mantissa(1.0, 10.0);
        for (int i = 0; i < 65536; ++i) {
          values->push_back(mantissa(rng) * std::pow(10.0, i % 12 - 4));
        }
        double bytes = 0.0;
        char buffer[io::detail::kNumberBufferSize];
        for (const double value : *values) {
          bytes += static_cast<double>(io::detail::format_number_to(buffer, value));
        }
        return PreparedCase{.op =
                                [values] {
                                  char text[io::detail::kNumberBufferSize];
                                  std::size_t total = 0;
                                  for (const double value : *values) {
                                    total += io::detail::format_number_to(text, value);
                                  }
                                  g_sink = total;
                                },
                            .iterations = 1,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "parse_spec",
      .description = "io::parse_json_hashed of one serve request body (the /v1/run "
                     "spec shape, pretty form): the handler's one parse, digest included",
      .setup = [] {
        auto text = std::make_shared<std::string>(spec_request_text());
        return PreparedCase{.op =
                                [text] {
                                  const io::ParsedJson parsed = io::parse_json_hashed(
                                      *text, {.allow_comments = true});
                                  g_sink = static_cast<std::size_t>(
                                      parsed.canonical_digest.value_or(0));
                                },
                            .iterations = 32,
                            .bytes_per_op = static_cast<double>(text->size())};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "dump_spec",
      .description = "io::Json::dump_to_hashed (compact) of one spec document's DOM "
                     "(the DOM dump path; the cache key streams: engine/cache_key)",
      .setup = [] {
        auto document = std::make_shared<io::Json>(
            scenario::spec_to_json(grid_spec()));
        const double bytes = static_cast<double>(document->dump(0).size());
        return PreparedCase{.op =
                                [document] {
                                  std::string text;
                                  const std::uint64_t digest =
                                      document->dump_to_hashed(text, 0);
                                  g_sink = text.size() ^ static_cast<std::size_t>(digest);
                                },
                            .iterations = 32,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "parse_manifest",
      .description = "io::parse_json of a /v1/batch manifest embedding the five "
                     "fleet specs: the handler's one parse",
      .setup = [] {
        auto text = std::make_shared<std::string>(batch_manifest_text());
        return PreparedCase{.op =
                                [text] {
                                  const io::Json parsed =
                                      io::parse_json(*text, {.allow_comments = true});
                                  g_sink = parsed.size();
                                },
                            .iterations = 8,
                            .bytes_per_op = static_cast<double>(text->size())};
      }});

  cases.push_back(BenchCase{
      .group = "json",
      .name = "dump_manifest",
      .description = "io::Json::dump_to (pretty) of the same batch manifest -- "
                     "the response-assembly direction",
      .setup = [] {
        auto document =
            std::make_shared<io::Json>(io::parse_json(batch_manifest_text()));
        const double bytes = static_cast<double>(document->dump().size());
        return PreparedCase{.op =
                                [document] {
                                  std::string text;
                                  document->dump_to(text);
                                  g_sink = text.size();
                                },
                            .iterations = 8,
                            .bytes_per_op = bytes};
      }});

  cases.push_back(BenchCase{
      .group = "cache",
      .name = "hit",
      .description = "ResultCache::lookup hit over 512 resident keys (content-"
                     "addressed LRU, one shared result)",
      .setup = [] {
        auto cache = std::make_shared<scenario::ResultCache>(1024);
        const scenario::ScenarioSpec spec = scenario::ScenarioSpec::make(
            scenario::ScenarioKind::compare, device::Domain::dnn);
        auto result = std::make_shared<const scenario::ScenarioResult>(
            single_thread_engine().run(spec));
        auto keys = std::make_shared<std::vector<std::string>>();
        for (int i = 0; i < 512; ++i) {
          keys->push_back("bench-key-" + std::to_string(i));
          cache->insert(keys->back(), result);
        }
        auto next = std::make_shared<std::size_t>(0);
        return PreparedCase{.op =
                                [cache, keys, next] {
                                  const auto hit =
                                      cache->lookup((*keys)[*next % keys->size()]);
                                  g_sink = hit ? 1 : 0;
                                  ++*next;
                                },
                            .iterations = 512,
                            .bytes_per_op = 0.0};
      }});

  cases.push_back(BenchCase{
      .group = "cache",
      .name = "miss",
      .description = "ResultCache::lookup miss (absent keys against 512 resident "
                     "entries)",
      .setup = [] {
        auto cache = std::make_shared<scenario::ResultCache>(1024);
        const scenario::ScenarioSpec spec = scenario::ScenarioSpec::make(
            scenario::ScenarioKind::compare, device::Domain::dnn);
        auto result = std::make_shared<const scenario::ScenarioResult>(
            single_thread_engine().run(spec));
        for (int i = 0; i < 512; ++i) {
          cache->insert("bench-key-" + std::to_string(i), result);
        }
        auto keys = std::make_shared<std::vector<std::string>>();
        for (int i = 0; i < 512; ++i) {
          keys->push_back("bench-absent-" + std::to_string(i));
        }
        auto next = std::make_shared<std::size_t>(0);
        return PreparedCase{.op =
                                [cache, keys, next] {
                                  const auto hit =
                                      cache->lookup((*keys)[*next % keys->size()]);
                                  g_sink = hit ? 1 : 0;
                                  ++*next;
                                },
                            .iterations = 512,
                            .bytes_per_op = 0.0};
      }});

  return cases;
}

}  // namespace greenfpga::bench
