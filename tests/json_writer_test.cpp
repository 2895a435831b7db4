/// The canonical JSON writer: streamed result and spec bytes are
/// byte-identical to the DOM dump and to the checked-in golden snapshots
/// for every kind, cache keys and their digests are pinned, the sorted-key
/// rule is enforced, and the format rules (separators,
/// indentation, non-finite sentinels, escaping) hold for streamed and
/// spliced values alike.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "golden_result_specs.hpp"
#include "io/hash.hpp"
#include "io/json.hpp"
#include "io/json_detail.hpp"
#include "io/json_writer.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/result_io.hpp"
#include "serve/handlers.hpp"

#if !defined(GREENFPGA_GOLDEN_DIR) || !defined(GREENFPGA_SPEC_GOLDEN_DIR) || \
    !defined(GREENFPGA_EXAMPLE_SPECS_DIR)
#error "the golden, spec-golden and example-spec directories are set by CMakeLists.txt"
#endif

namespace greenfpga {
namespace {

using io::Json;
using io::JsonWriter;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

template <class Write>
std::string written(int indent, Write&& write) {
  std::string text;
  JsonWriter out(text, indent);
  write(out);
  out.finish();
  return text;
}

// -- every kind: writer bytes == DOM dump == golden ---------------------------------

/// The writer thread counts every result test runs at: the bytes never
/// depend on how many workers wrote them.
constexpr int kWriterThreads[] = {1, 2, 3, 8};

std::string result_bytes_at(const scenario::ScenarioResult& result, int indent, int threads) {
  return written(indent,
                 [&](JsonWriter& out) { scenario::write_result(result, out, threads); });
}

class JsonWriterResults : public ::testing::TestWithParam<scenario::ScenarioKind> {};

TEST_P(JsonWriterResults, BytesMatchTheDomDumpAndTheGolden) {
  const scenario::ScenarioResult result = scenario::golden::run_kind(GetParam());
  const Json dom = scenario::result_to_json(result);
  const std::string golden = read_file(std::string(GREENFPGA_GOLDEN_DIR) + "/result_" +
                                       scenario::to_string(GetParam()) + ".json");
  ASSERT_FALSE(golden.empty());
  for (const int threads : kWriterThreads) {
    for (const int indent : {0, 2}) {
      EXPECT_EQ(result_bytes_at(result, indent, threads), dom.dump(indent))
          << "indent " << indent << ", threads " << threads;
    }
    EXPECT_EQ(scenario::result_document(result, threads), golden) << "threads " << threads;
  }
  EXPECT_EQ(scenario::result_bytes(result) + "\n", golden);
}

TEST_P(JsonWriterResults, ResultObjectStreamsAtAnyDepth) {
  // Nested inside an array (the /v1/batch body shape) the result is the
  // same bytes as its own DOM dumped one level down.
  const scenario::ScenarioResult result = scenario::golden::run_kind(GetParam());
  const std::string expected = Json::array({scenario::result_to_json(result)}).dump(2);
  for (const int threads : kWriterThreads) {
    const std::string streamed = written(2, [&](JsonWriter& out) {
      out.begin_array();
      scenario::write_result(result, out, threads);
      out.end_array();
    });
    EXPECT_EQ(streamed, expected) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, JsonWriterResults,
                         ::testing::ValuesIn(scenario::golden::all_kinds()),
                         [](const ::testing::TestParamInfo<scenario::ScenarioKind>& info) {
                           return scenario::to_string(info.param);
                         });

// -- the spec: write_spec bytes == the canonical bytes recorded before it streamed -------

std::string write_spec_bytes(const scenario::ScenarioSpec& spec, int indent) {
  return written(indent, [&](JsonWriter& out) { scenario::write_spec(spec, out); });
}

TEST_P(JsonWriterResults, SpecBytesMatchTheGoldenSpecSection) {
  // The as-run spec (platforms defaulted) is what the golden result embeds.
  const scenario::ScenarioResult result = scenario::golden::run_kind(GetParam());
  const std::string golden = read_file(std::string(GREENFPGA_GOLDEN_DIR) + "/result_" +
                                       scenario::to_string(GetParam()) + ".json");
  ASSERT_FALSE(golden.empty());
  const Json section = io::parse_json(golden).at("spec");
  for (const int indent : {0, 2}) {
    EXPECT_EQ(write_spec_bytes(result.spec, indent), section.dump(indent))
        << "indent " << indent;
  }
}

/// Every example spec file (manifests excluded), by file stem.
std::vector<std::string> example_spec_stems() {
  std::vector<std::string> stems;
  for (const auto& entry : std::filesystem::directory_iterator(GREENFPGA_EXAMPLE_SPECS_DIR)) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() == ".json" && stem.find("manifest") == std::string::npos) {
      stems.push_back(stem);
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

scenario::ScenarioSpec example_spec(const std::string& stem) {
  return scenario::load_spec(std::string(GREENFPGA_EXAMPLE_SPECS_DIR) + "/" + stem + ".json");
}

/// The canonical dumps in tests/spec_golden were written by the DOM path
/// (spec_to_json(spec).dump(2)) before the spec was streamed.
std::string spec_golden(const std::string& name) {
  return read_file(std::string(GREENFPGA_SPEC_GOLDEN_DIR) + "/" + name);
}

TEST(JsonWriterSpecs, ExampleSpecBytesMatchTheRecordedDomDumps) {
  const std::vector<std::string> stems = example_spec_stems();
  ASSERT_GE(stems.size(), 8u);
  for (const std::string& stem : stems) {
    const std::string recorded = spec_golden(stem + ".json");
    ASSERT_FALSE(recorded.empty()) << stem;
    const scenario::ScenarioSpec spec = example_spec(stem);
    EXPECT_EQ(write_spec_bytes(spec, 2) + "\n", recorded) << stem;
    EXPECT_EQ(write_spec_bytes(spec, 0), io::parse_json(recorded).dump(0)) << stem;
    EXPECT_EQ(scenario::spec_to_json(spec).dump(2) + "\n", recorded) << stem;
  }
}

TEST(JsonWriterSpecs, MisorderedWriteParamsKeyThrowsLogicError) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::make(
      scenario::ScenarioKind::breakeven);
  const scenario::KindModule& module = scenario::kind_module(spec.kind);
  ASSERT_NE(module.write_params, nullptr);
  std::string text;
  JsonWriter out(text, 0);
  out.begin_object();
  out.number("timeline", 1.0);  // sorts after "breakeven"
  EXPECT_THROW(module.write_params(spec, module.spec_keys.front(), out), std::logic_error);
}

/// Cache keys and their X-Cache-Key digests, recorded before the key was
/// streamed: a daemon's disk tier written then must still hit.
struct PinnedKey {
  const char* stem;
  const char* digest;
};

constexpr PinnedKey kPinnedKeys[] = {
    {"crypto_three_way_compare", "fnv1a64:152ed47aec3ef765"},
    {"dnn_breakeven_montecarlo", "fnv1a64:70faf91d13a3577b"},
    {"fleet_datacenter", "fnv1a64:43f813a0f26acf21"},
};

TEST(JsonWriterSpecs, CacheKeyBytesAndDigestsArePinned) {
  const scenario::Engine engine(scenario::EngineOptions{.threads = 1});
  for (const PinnedKey& pinned : kPinnedKeys) {
    const scenario::ScenarioSpec spec = example_spec(pinned.stem);
    const std::string key = engine.cache_key(spec);
    EXPECT_EQ(key, spec_golden(std::string(pinned.stem) + ".key")) << pinned.stem;
    EXPECT_EQ(io::content_digest(key), pinned.digest) << pinned.stem;
    const scenario::Engine::CachedRun run = engine.run_cached(spec);
    EXPECT_EQ(run.key, key) << pinned.stem;
    EXPECT_EQ(io::content_digest_of_hash(run.fingerprint), pinned.digest) << pinned.stem;
  }
}

TEST(JsonWriterSpecs, XCacheKeyHeadersArePinned) {
  serve::ServeContext context(scenario::EngineOptions{.threads = 1}, 8, 1);
  const serve::Router router = serve::make_router(context);
  for (const PinnedKey& pinned : kPinnedKeys) {
    serve::HttpRequest request;
    request.method = "POST";
    request.target = "/v1/run";
    request.version = "HTTP/1.1";
    request.body =
        read_file(std::string(GREENFPGA_EXAMPLE_SPECS_DIR) + "/" + pinned.stem + ".json");
    const serve::HttpResponse response = router.route(request);
    ASSERT_EQ(response.status, 200) << pinned.stem << ": " << response.body;
    std::string header;
    for (const auto& [name, value] : response.headers) {
      if (name == "X-Cache-Key") {
        header = value;
      }
    }
    EXPECT_EQ(header, pinned.digest) << pinned.stem;
  }
}

// -- the sorted-key rule -------------------------------------------------------------

TEST(JsonWriter, OutOfOrderKeyThrowsLogicError) {
  std::string text;
  JsonWriter out(text, 0);
  out.begin_object();
  out.number("b", 1.0);
  EXPECT_THROW(out.key("a"), std::logic_error);
}

TEST(JsonWriter, DuplicateKeyThrowsLogicError) {
  std::string text;
  JsonWriter out(text, 0);
  out.begin_object();
  out.number("a", 1.0);
  EXPECT_THROW(out.key("a"), std::logic_error);
}

TEST(JsonWriter, OutOfOrderRuntimeKeyThrowsLogicError) {
  std::string text;
  JsonWriter out(text, 0);
  out.begin_object();
  out.runtime_key(std::string("m"));
  out.null();
  out.key("n");  // compile-time and runtime keys share one order
  out.null();
  EXPECT_THROW(out.runtime_key(std::string("c")), std::logic_error);
}

TEST(JsonWriter, KeyOrderIsPerObject) {
  // A nested object starts its own order; the parent's resumes after it.
  const std::string text = written(0, [](JsonWriter& out) {
    out.begin_object();
    out.key("m");
    out.begin_object();
    out.number("a", 1.0);
    out.number("z", 2.0);
    out.end_object();
    out.number("n", 3.0);
    out.end_object();
  });
  EXPECT_EQ(text, R"({"m":{"a":1,"z":2},"n":3})");
}

TEST(JsonWriter, MisplacedKeysAndValuesThrowLogicError) {
  std::string text;
  JsonWriter out(text, 0);
  out.begin_array();
  EXPECT_THROW(out.key("a"), std::logic_error);  // a key inside an array
  out.end_array();
  std::string more;
  JsonWriter object(more, 0);
  object.begin_object();
  EXPECT_THROW(object.number(1.0), std::logic_error);  // a value without a key
  EXPECT_THROW(object.end_array(), std::logic_error);  // the wrong bracket
  EXPECT_THROW(object.newline(), std::logic_error);    // a line end mid-object
}

TEST(JsonWriter, DocumentEndsWithOneNewline) {
  const scenario::ScenarioResult result =
      scenario::golden::run_kind(scenario::ScenarioKind::compare);
  EXPECT_EQ(scenario::result_document(result), scenario::result_bytes(result) + "\n");
}

// -- format rules --------------------------------------------------------------------

TEST(JsonWriter, NonFiniteCellsAreQuotedSentinels) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> cells{inf, -inf, std::numeric_limits<double>::quiet_NaN(), 1.5};
  EXPECT_EQ(written(0, [&](JsonWriter& out) { out.numbers(cells); }),
            R"(["inf","-inf","nan",1.5])");
  // And through a whole result: an unbounded breakeven solve.
  scenario::ScenarioResult result =
      scenario::golden::run_kind(scenario::ScenarioKind::breakeven);
  result.breakeven->app_count = inf;
  result.breakeven->volume = std::numeric_limits<double>::quiet_NaN();
  const std::string bytes = scenario::result_bytes(result, 0);
  EXPECT_NE(bytes.find(R"("app_count":"inf")"), std::string::npos) << bytes;
  EXPECT_NE(bytes.find(R"("volume":"nan")"), std::string::npos) << bytes;
}

TEST(JsonWriter, PrettyLayoutMatchesTheDomDump) {
  const Json document = Json::object(
      {{"empty_array", Json::array()},
       {"empty_object", Json::object()},
       {"nested", Json::array({1.0, Json::object({{"k", "v\n\"q\""}}), Json::array()})},
       {"scalars", Json::array({true, false, nullptr, -0.25, 1e300})}});
  const std::string expected =
      "{\n"
      "  \"empty_array\": [],\n"
      "  \"empty_object\": {},\n"
      "  \"nested\": [\n"
      "    1,\n"
      "    {\n"
      "      \"k\": \"v\\n\\\"q\\\"\"\n"
      "    },\n"
      "    []\n"
      "  ],\n"
      "  \"scalars\": [\n"
      "    true,\n"
      "    false,\n"
      "    null,\n"
      "    -0.25,\n"
      "    1e+300\n"
      "  ]\n"
      "}";
  EXPECT_EQ(document.dump(2), expected);
  // Streamed by hand, the same value gives the same bytes.
  const std::string streamed = written(2, [](JsonWriter& out) {
    out.begin_object();
    out.key("empty_array");
    out.begin_array();
    out.end_array();
    out.key("empty_object");
    out.begin_object();
    out.end_object();
    out.key("nested");
    out.begin_array();
    out.number(1.0);
    out.begin_object();
    out.string("k", "v\n\"q\"");
    out.end_object();
    out.begin_array();
    out.end_array();
    out.end_array();
    out.key("scalars");
    out.begin_array();
    out.boolean(true);
    out.boolean(false);
    out.null();
    out.number(-0.25);
    out.number(1e300);
    out.end_array();
    out.end_object();
  });
  EXPECT_EQ(streamed, expected);
}

TEST(JsonWriter, IndentationDeeperThanThePadString) {
  constexpr int kDepth = 60;  // 120 pad bytes at indent 2
  Json value = 7.0;
  for (int i = 0; i < kDepth; ++i) {
    value = Json::array({value});
  }
  std::string expected;
  for (int i = 0; i < kDepth; ++i) {
    expected += "[\n" + std::string(static_cast<std::size_t>(2 * (i + 1)), ' ');
  }
  expected += "7";
  for (int i = kDepth - 1; i >= 0; --i) {
    expected += "\n" + std::string(static_cast<std::size_t>(2 * i), ' ') + "]";
  }
  EXPECT_EQ(value.dump(2), expected);
}

TEST(JsonWriter, AppendsToExistingContentOnFinish) {
  std::string expected = "prefix:[";
  for (int i = 0; i < 2000; ++i) {
    expected += (i == 0 ? "" : ",") + std::to_string(i);
  }
  expected += "]";
  std::string text = "prefix:";
  JsonWriter out(text, 0);
  out.begin_array();
  for (int i = 0; i < 2000; ++i) {  // forces several buffer growths
    out.number(i);
  }
  out.end_array();
  EXPECT_EQ(text, "prefix:");  // buffered until finish
  out.finish();
  EXPECT_EQ(text, expected);
  out.finish();  // nothing new written: nothing appended twice
  EXPECT_EQ(text, expected);
}

TEST(JsonWriter, AWriterUnwoundByAnExceptionLeavesTheOutputUnchanged) {
  std::string text = "kept";
  EXPECT_THROW(
      {
        JsonWriter out(text, 0);
        out.begin_object();
        out.number("b", 1.0);
        out.key("a");  // throws: out of order
        out.finish();
      },
      std::logic_error);
  EXPECT_EQ(text, "kept");
}

TEST(JsonWriter, SplicedDomAndRuntimeKeysEscape) {
  const std::string text = written(0, [](JsonWriter& out) {
    out.begin_object();
    out.runtime_key("a\"b");
    out.json(Json::object({{"tab\t", 1.0}}));
    out.end_object();
  });
  EXPECT_EQ(text, R"({"a\"b":{"tab\t":1}})");
  EXPECT_EQ(io::parse_json(text).dump(0), text);
}

TEST(JsonWriter, EmptyStringsAndKeys) {
  // A default-constructed view has a null data(): still a valid "".
  EXPECT_EQ(written(0,
                    [](JsonWriter& out) {
                      out.begin_object();
                      out.runtime_key(std::string_view());
                      out.string(std::string_view());
                      out.end_object();
                    }),
            R"({"":""})");
}

TEST(JsonWriter, NestingDeeperThanOnePadBlockMatchesTheDomDump) {
  // Indentation is copied in 32-byte blocks: 150 levels reach 300 spaces
  // at indent 2 and 600 at indent 4, many blocks per line.
  constexpr int kDepth = 150;
  Json value = Json::object({{"leaf", 7.0}});
  for (int i = 0; i < kDepth; ++i) {
    value = i % 2 == 0 ? Json::array({value, 1.5}) : Json::object({{"k", value}});
  }
  for (const int indent : {2, 4}) {
    std::string expected;
    const auto pad = [&](int depth) {
      return "\n" + std::string(static_cast<std::size_t>(indent * depth), ' ');
    };
    // The same document, built by hand from the outside in.
    std::string tail;
    for (int level = 0; level < kDepth; ++level) {
      const int i = kDepth - 1 - level;  // the wrapper written at this level
      if (i % 2 == 0) {
        expected += "[" + pad(level + 1);
        tail = "," + pad(level + 1) + "1.5" + pad(level) + "]" + tail;
      } else {
        expected += "{" + pad(level + 1) + "\"k\": ";
        tail = pad(level) + "}" + tail;
      }
    }
    expected += "{" + pad(kDepth + 1) + "\"leaf\": 7" + pad(kDepth) + "}" + tail;
    EXPECT_TRUE(value.dump(indent) == expected) << "indent " << indent;
    const std::string streamed = written(indent, [&](JsonWriter& out) { out.json(value); });
    EXPECT_TRUE(streamed == expected) << "indent " << indent;
  }
}

TEST(JsonWriter, KeysAroundThePadBlockLengthAndEscapedRuntimeKeys) {
  const std::string k31 = "b" + std::string(30, 'x');
  const std::string k32 = "c" + std::string(31, 'x');
  const std::string k33 = "d" + std::string(32, 'x');
  const Json dom = Json::object({{"a", 1.0},
                                 {k31, 2.0},
                                 {k32, 3.0},
                                 {k33, Json::object({{"e\"q\\\n", 4.0}})}});
  for (const int indent : {0, 2}) {
    const std::string streamed = written(indent, [](JsonWriter& out) {
      out.begin_object();
      out.number("a", 1.0);
      out.number("bxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", 2.0);
      out.number("cxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", 3.0);
      out.key("dxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
      out.begin_object();
      out.runtime_key("e\"q\\\n");
      out.number(4.0);
      out.end_object();
      out.end_object();
    });
    EXPECT_EQ(streamed, dom.dump(indent)) << "indent " << indent;
  }
  EXPECT_EQ(dom.dump(0), "{\"a\":1,\"" + k31 + "\":2,\"" + k32 + "\":3,\"" + k33 +
                             "\":{\"e\\\"q\\\\\\n\":4}}");
}

/// The message a misordered key throws.
std::string misordered_key_message(const std::function<void(JsonWriter&)>& write) {
  std::string text;
  JsonWriter out(text, 2);
  out.begin_object();
  try {
    write(out);
  } catch (const std::logic_error& error) {
    return error.what();
  }
  return "no throw";
}

TEST(JsonWriter, MisorderedKeysThrowWhetherOrNotTheirFirstBytesTie) {
  EXPECT_EQ(misordered_key_message([](JsonWriter& out) {
              out.number("ac", 1.0);
              out.key("ab");  // ties on 'a'
            }),
            "JsonWriter: key \"ab\" written after \"ac\" (object keys must be strictly "
            "increasing)");
  EXPECT_EQ(misordered_key_message([](JsonWriter& out) {
              out.number("b", 1.0);
              out.key("ab");  // 'a' < 'b'
            }),
            "JsonWriter: key \"ab\" written after \"b\" (object keys must be strictly "
            "increasing)");
  EXPECT_EQ(misordered_key_message([](JsonWriter& out) {
              out.runtime_key("ac");
              out.null();
              out.runtime_key(std::string("ab"));
            }),
            "JsonWriter: key \"ab\" written after \"ac\" (object keys must be strictly "
            "increasing)");
  // A prefix sorts first; a key after its own prefix is in order.
  EXPECT_EQ(misordered_key_message([](JsonWriter& out) {
              out.number("ab", 1.0);
              out.key("a");
            }),
            "JsonWriter: key \"a\" written after \"ab\" (object keys must be strictly "
            "increasing)");
  EXPECT_EQ(misordered_key_message([](JsonWriter& out) {
              out.number("a", 1.0);
              out.number("ab", 2.0);
            }),
            "no throw");
}

TEST(JsonWriter, TheLongestNumberFormIsIdenticalFromAFreshSlotAndFromTheMemo) {
  // sign, 17 significant digits, point, "e-308": 24 bytes, the longest
  // canonical form and the whole of a memo slot's text.
  constexpr double kValue = -2.2250738585072014e-308;
  const std::string expected = "-2.2250738585072014e-308";
  ASSERT_EQ(expected.size(), io::detail::kMaxNumberBytes);
  // Evict the value's slot first, so the first write formats it afresh.
  const std::size_t slot =
      io::detail::number_memo_slot(std::bit_cast<std::uint64_t>(kValue));
  double other = 1.0;
  while (io::detail::number_memo_slot(std::bit_cast<std::uint64_t>(other)) != slot) {
    other = std::nextafter(other, 2.0);
  }
  EXPECT_EQ(io::format_number(other), io::format_number(other));
  EXPECT_TRUE(io::detail::memoised_number(kValue).empty());
  const auto write = [&] {
    return written(0, [&](JsonWriter& out) {
      out.begin_array();
      out.number(kValue);
      out.number(kValue);
      out.end_array();
    });
  };
  const std::string twice = "[" + expected + "," + expected + "]";
  EXPECT_EQ(write(), twice);  // formatted, then replayed from the memo
  EXPECT_EQ(io::detail::memoised_number(kValue), expected);
  EXPECT_EQ(write(), twice);
}

// -- chunked writing: continuations spliced in order ----------------------------------

TEST(JsonWriterChunks, ALargeGridWritesTheSameBytesAtEveryThreadCount) {
  // 20 x 20 points x 2 platforms is past the pool's inline cutoff, so at
  // two or more threads the points array goes out in spliced chunks.
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::grid, device::Domain::dnn);
  spec.axes = {scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 20),
               scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 3.0,
                                          20)};
  const scenario::ScenarioResult result =
      scenario::Engine(scenario::EngineOptions{.threads = 1}).run(spec);
  ASSERT_GE(result.points.size() * result.platform_names.size(), core::kInlineWork);
  const std::string document = scenario::result_document(result);
  const std::string nested = written(2, [&](JsonWriter& out) {
    out.begin_array();
    scenario::write_result(result, out);
    out.end_array();
  });
  // EXPECT_TRUE(a == b), not EXPECT_EQ: gtest's line diff of two
  // half-MB documents takes seconds and a lot of memory.
  const std::string compact = scenario::result_bytes(result, 0);
  for (const int threads : kWriterThreads) {
    EXPECT_TRUE(scenario::result_document(result, threads) == document) << "threads " << threads;
    EXPECT_TRUE(result_bytes_at(result, 0, threads) == compact) << "threads " << threads;
    const std::string streamed = written(2, [&](JsonWriter& out) {
      out.begin_array();
      scenario::write_result(result, out, threads);
      out.end_array();
    });
    EXPECT_TRUE(streamed == nested) << "threads " << threads;
  }
}

TEST(JsonWriterChunks, A50x50GridsSegmentsJoinToItsDocumentAndKeepNoSlack) {
  // The serve render: the writer's buffers handed over as they are, one
  // per spliced chunk plus the parent's stretches around them.
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::grid, device::Domain::dnn);
  spec.axes = {scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 50),
               scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5,
                                          50)};
  const scenario::ScenarioResult result =
      scenario::Engine(scenario::EngineOptions{.threads = 1}).run(spec);
  const std::string document = scenario::result_document(result);
  for (const int threads : {1, 2, 4}) {
    const io::ByteSegments segments = scenario::result_segments(result, threads);
    std::string joined;
    for (std::size_t i = 0; i < segments.segment_count(); ++i) {
      const std::string_view segment = segments.segment(i);
      EXPECT_FALSE(segment.empty()) << "threads " << threads << ", segment " << i;
      joined.append(segment);
#if defined(__GLIBC__)
      // Shrunk to fit: what malloc keeps is the bytes, rounded up to its
      // chunk granularity (a page at most), not the writer's doubling.
      const std::size_t kept = malloc_usable_size(const_cast<char*>(segment.data()));
      EXPECT_GE(kept, segment.size());
      EXPECT_LT(kept - segment.size(), std::size_t{4096})
          << "threads " << threads << ", segment " << i << " of " << segment.size()
          << " bytes keeps " << kept;
#endif
    }
    EXPECT_TRUE(joined == document) << "threads " << threads;
    EXPECT_EQ(segments.size(), document.size()) << "threads " << threads;
    EXPECT_TRUE(segments.str() == document) << "threads " << threads;
    if (threads > 1) {
      EXPECT_GT(segments.segment_count(), 1u) << "threads " << threads;
    }
  }
}

/// `count` objects {"i": i, "sq": i*i} written through io::write_elements,
/// with one element allowed to misorder its keys.
std::string chunked_objects(std::size_t count, int threads, std::size_t misordered = SIZE_MAX) {
  return written(2, [&](JsonWriter& out) {
    out.begin_object();
    out.key("items");
    out.begin_array();
    io::write_elements(out, count, threads, core::kInlineWork,
                       [&](JsonWriter& writer, std::size_t i) {
                         writer.begin_object();
                         if (i == misordered) {
                           writer.number("sq", static_cast<double>(i * i));
                           writer.number("i", static_cast<double>(i));
                         } else {
                           writer.number("i", static_cast<double>(i));
                           writer.number("sq", static_cast<double>(i * i));
                         }
                         writer.end_object();
                       });
    out.end_array();
    out.end_object();
  });
}

TEST(JsonWriterChunks, ChunkedElementsEqualTheSerialBytes) {
  for (const std::size_t count : {1, 2, 3, 10, 97}) {
    const std::string serial = chunked_objects(count, 1);
    for (const int threads : kWriterThreads) {
      EXPECT_EQ(chunked_objects(count, threads), serial)
          << "count " << count << ", threads " << threads;
    }
  }
}

TEST(JsonWriterChunks, AMisorderedKeyInALaterChunkThrowsOnTheCaller) {
  // 8 elements on 2 workers: element 7 belongs to the second chunk, which
  // a continuation writer writes.
  EXPECT_THROW(chunked_objects(8, 2, 7), std::logic_error);
  EXPECT_THROW(chunked_objects(8, 3, 7), std::logic_error);
}

TEST(JsonWriterChunks, PoolThreadsFormatThroughTheirOwnNumberMemos) {
  // Each thread formats numbers through its own memo.  Three distinct
  // numbers per memo slot (so slots are hit, evicted and refilled)
  // written from 8 pool workers at once give the serial bytes.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(-1e7, 1e7);
  std::vector<double> values;
  for (std::size_t i = 0; i < 3 * io::detail::kNumberMemoSlots; ++i) {
    values.push_back(i % 3 == 0 ? std::round(unit(rng)) : unit(rng));
  }
  const auto document = [&values](std::size_t item) {
    std::string text;
    JsonWriter out(text, 0);
    out.begin_array();
    for (std::size_t k = 0; k < 64; ++k) {
      out.number(values[(item * 37 + k * 101) % values.size()]);
    }
    out.end_array();
    out.finish();
    return text;
  };
  constexpr std::size_t kItems = 2000;
  std::vector<std::string> serial(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    serial[i] = document(i);
  }
  std::vector<std::string> pooled(kItems);
  core::parallel_for_state(
      kItems, 8, [] { return 0; },
      [&](int& /*state*/, std::size_t i) { pooled[i] = document(i); }, core::kInlineWork);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(pooled[i], serial[i]) << "item " << i;
  }
}

/// Elements [from, to) of a small mixed array: numbers and objects.
void write_items(JsonWriter& out, int from, int to) {
  for (int i = from; i < to; ++i) {
    if (i % 3 == 0) {
      out.begin_object();
      out.number("i", i);
      out.string("name", "item " + std::to_string(i));
      out.end_object();
    } else {
      out.number(i + 0.5);
    }
  }
}

TEST(JsonWriterChunks, SplicesLandWhereTheyWereMadeAndAreHashedInOrder) {
  for (const int indent : {0, 2}) {
    std::string serial;
    {
      JsonWriter out(serial, indent);
      out.begin_object();
      out.key("items");
      out.begin_array();
      write_items(out, 0, 12);
      out.end_array();
      out.number("z", 1.0);
      out.end_object();
      out.finish();
    }
    std::string spliced = "kept:";
    JsonWriter out(spliced, indent);
    out.begin_object();
    out.key("items");
    out.begin_array();
    write_items(out, 0, 2);
    JsonWriter part(JsonWriter::continuation, out);
    write_items(part, 2, 5);
    // A continuation of the continuation, spliced into it first: its bytes
    // travel with the part's.
    JsonWriter nested(JsonWriter::continuation, part);
    write_items(nested, 5, 7);
    part.splice(nested);
    write_items(part, 7, 8);
    out.splice(part);
    write_items(out, 8, 10);  // the parent writes on after the splice
    JsonWriter later(JsonWriter::continuation, out);
    write_items(later, 10, 12);
    out.splice(later);
    out.end_array();
    out.number("z", 1.0);
    out.end_object();
    EXPECT_EQ(spliced, "kept:");  // nothing is copied before finish
    const std::uint64_t digest = out.finish_hashed();
    EXPECT_EQ(spliced, "kept:" + serial) << "indent " << indent;
    EXPECT_EQ(digest, io::fnv1a64(serial)) << "indent " << indent;
    // The writer stays usable, and spliced parts are not appended twice.
    out.finish();
    EXPECT_EQ(spliced, "kept:" + serial);
  }
}

TEST(JsonWriterChunks, ContinuationsCheckWhereTheyStartAndEnd) {
  std::string text;
  JsonWriter out(text, 0);
  out.begin_object();
  EXPECT_THROW(JsonWriter(JsonWriter::continuation, out), std::logic_error);  // not in an array
  out.key("a");
  out.begin_array();
  JsonWriter part(JsonWriter::continuation, out);
  EXPECT_THROW(out.splice(part), std::logic_error);  // the parent wrote no element yet
  out.number(1.0);
  part.number(2.0);
  EXPECT_THROW(part.finish(), std::logic_error);  // a continuation has no output
  JsonWriter open(JsonWriter::continuation, out);
  open.begin_array();
  EXPECT_THROW(out.splice(open), std::logic_error);  // it left an array open
  out.splice(part);
  out.end_array();
  out.end_object();
  out.finish();
  EXPECT_EQ(text, R"({"a":[1,2]})");
}

}  // namespace
}  // namespace greenfpga
