/// Tests for the from-scratch JSON parser and writer.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "io/hash.hpp"
#include "io/json.hpp"
#include "io/json_detail.hpp"

namespace greenfpga::io {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(parse_json("1e6").as_number(), 1e6);
  EXPECT_DOUBLE_EQ(parse_json("2.5E-3").as_number(), 2.5e-3);
  EXPECT_EQ(parse_json("\"hello\"").as_string(), "hello");
}

TEST(JsonParse, WhitespaceTolerant) {
  const Json v = parse_json("  \t\n { \"a\" : [ 1 , 2 ] } \r\n ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  const Json v = parse_json(R"({"a": {"b": [1, {"c": "d"}]}})");
  EXPECT_EQ(v.at("a").at("b").at(1).at("c").as_string(), "d");
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(parse_json("[]").size(), 0u);
  EXPECT_EQ(parse_json("{}").size(), 0u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse_json(R"("a\\b")").as_string(), "a\\b");
  EXPECT_EQ(parse_json(R"("a\nb\tc")").as_string(), "a\nb\tc");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xC3\xA9");          // e-acute
  EXPECT_EQ(parse_json(R"("€")").as_string(), "\xE2\x82\xAC");      // euro sign
  EXPECT_EQ(parse_json(R"("😀")").as_string(), "\xF0\x9F\x98\x80");  // emoji
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("[1,]"), JsonError);
  EXPECT_THROW(parse_json("{\"a\":}"), JsonError);
  EXPECT_THROW(parse_json("{'a': 1}"), JsonError);
  EXPECT_THROW(parse_json("[1] trailing"), JsonError);
  EXPECT_THROW(parse_json("01"), JsonError);
  EXPECT_THROW(parse_json("1."), JsonError);
  EXPECT_THROW(parse_json(".5"), JsonError);
  EXPECT_THROW(parse_json("+1"), JsonError);
  EXPECT_THROW(parse_json("nul"), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  EXPECT_THROW(parse_json("\"bad\\escape\""), JsonError);
  EXPECT_THROW(parse_json("\"\\u12\""), JsonError);
  EXPECT_THROW(parse_json(R"("\ud800")"), JsonError);  // unpaired surrogate
}

TEST(JsonParse, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_json(R"({"a": 1, "a": 2})"), JsonError);
}

TEST(JsonParse, ErrorsIncludePosition) {
  try {
    parse_json("{\n  \"a\": !\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("2:"), std::string::npos)
        << "message should name line 2: " << error.what();
  }
}

TEST(JsonParse, CommentsOnlyInConfigMode) {
  const std::string text = "{\n// a comment\n\"a\": 1\n}";
  EXPECT_THROW(parse_json(text), JsonError);
  const Json v = parse_json(text, JsonParseOptions{.allow_comments = true});
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.0);
}

TEST(JsonParse, Utf8BomSkipped) {
  EXPECT_DOUBLE_EQ(parse_json("\xEF\xBB\xBF 1.5").as_number(), 1.5);
}

TEST(JsonAccess, TypeMismatchThrowsWithNames) {
  const Json v = parse_json(R"({"a": 1})");
  try {
    (void)v.at("a").as_string();
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("string"), std::string::npos);
    EXPECT_NE(message.find("number"), std::string::npos);
  }
}

TEST(JsonAccess, MissingKeyNamesKey) {
  const Json v = parse_json("{}");
  try {
    (void)v.at("missing");
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("missing"), std::string::npos);
  }
}

TEST(JsonAccess, IndexOutOfRange) {
  const Json v = parse_json("[1]");
  EXPECT_THROW((void)v.at(1), JsonError);
}

TEST(JsonAccess, DefaultsForOptionalFields) {
  const Json v = parse_json(R"({"present": 2.0})");
  EXPECT_DOUBLE_EQ(v.number_or("present", 1.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("absent", 1.0), 1.0);
  EXPECT_EQ(v.string_or("absent", "x"), "x");
  EXPECT_EQ(v.bool_or("absent", true), true);
}

TEST(JsonAccess, AsIntChecksIntegrality) {
  EXPECT_EQ(parse_json("5").as_int(), 5);
  EXPECT_THROW(parse_json("5.5").as_int(), JsonError);
}

TEST(JsonBuild, ObjectAndArrayBuilders) {
  Json obj = Json::object({{"name", "chip"}, {"area", 150.0}});
  obj["extra"] = Json::array({1, 2, 3});
  obj["extra"].push_back(4);
  EXPECT_EQ(obj.at("extra").size(), 4u);
  EXPECT_EQ(obj.at("name").as_string(), "chip");
}

TEST(JsonDump, CompactAndPretty) {
  const Json v = parse_json(R"({"b": [1, 2], "a": true})");
  EXPECT_EQ(v.dump(0), R"({"a":true,"b":[1,2]})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": true"), std::string::npos);
}

TEST(JsonDump, DeterministicKeyOrder) {
  const Json v1 = parse_json(R"({"z": 1, "a": 2})");
  const Json v2 = parse_json(R"({"a": 2, "z": 1})");
  EXPECT_EQ(v1.dump(0), v2.dump(0));
}

TEST(JsonDump, EscapesControlCharacters) {
  const Json v{std::string("a\nb\x01")};
  EXPECT_EQ(v.dump(0), "\"a\\nb\\u0001\"");
}

TEST(JsonParse, DepthBombFailsCleanly) {
  // 100k unclosed '[': without the recursion cap the recursive-descent
  // parser overflows the stack; with it, this is an ordinary parse error
  // at the first bracket past the limit (1-based line:column).
  const std::string bomb(100'000, '[');
  try {
    (void)parse_json(bomb);
    FAIL() << "depth bomb parsed";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting depth exceeds 256"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("1:257"), std::string::npos)
        << error.what();
  }
}

TEST(JsonParse, DepthBombOfObjectsFailsCleanly) {
  std::string bomb;
  for (int i = 0; i < 100'000; ++i) {
    bomb += "{\"k\":";
  }
  EXPECT_THROW((void)parse_json(bomb), JsonError);
}

TEST(JsonParse, NestingAtTheLimitStillParses) {
  // Exactly max_depth levels parse; one more fails.
  JsonParseOptions options;
  options.max_depth = 4;
  EXPECT_EQ(parse_json("[[[[1]]]]", options).dump(0), "[[[[1]]]]");
  EXPECT_THROW((void)parse_json("[[[[[1]]]]]", options), JsonError);
}

TEST(JsonParse, MixedNestingCountsBothContainerKinds) {
  JsonParseOptions options;
  options.max_depth = 3;
  EXPECT_EQ(parse_json(R"({"a":[{"b":1}]})", options).dump(0), R"({"a":[{"b":1}]})");
  EXPECT_THROW((void)parse_json(R"({"a":[{"b":[1]}]})", options), JsonError);
}

TEST(JsonDump, NonFiniteNumbersUseStringSentinels) {
  // JSON has no inf/nan literal; the writer encodes them as string
  // sentinels (still valid RFC 8259) and as_number() decodes them, so the
  // round-trip stays total (the old `null` stand-in broke every reader).
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0), "\"inf\"");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(0), "\"-inf\"");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0), "\"nan\"");
}

TEST(JsonDump, NonFiniteRoundTripIsByteIdentical) {
  const Json original = Json::array({std::numeric_limits<double>::infinity(),
                                     -std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::quiet_NaN(), 1.5});
  const std::string bytes = original.dump(0);
  const Json reparsed = parse_json(bytes);
  EXPECT_EQ(reparsed.dump(0), bytes);
  EXPECT_EQ(reparsed.at(std::size_t{0}).as_number_total(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(reparsed.at(std::size_t{1}).as_number_total(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(reparsed.at(std::size_t{2}).as_number_total()));
  EXPECT_EQ(reparsed.at(std::size_t{3}).as_number_total(), 1.5);
}

TEST(JsonAccess, StrictAsNumberRejectsTheSentinels) {
  // Only as_number_total() decodes the writer's non-finite encoding;
  // plain as_number() stays strict so spec/config ingestion cannot be
  // fed smuggled inf/NaN values that evade range validation.
  EXPECT_THROW(Json("inf").as_number(), JsonError);
  EXPECT_THROW(Json("-inf").as_number(), JsonError);
  EXPECT_THROW(Json("nan").as_number(), JsonError);
}

TEST(JsonAccess, NonSentinelStringIsNotANumberEvenTotally) {
  EXPECT_THROW(Json("infinity").as_number_total(), JsonError);
  EXPECT_THROW(Json("NaN").as_number_total(), JsonError);
  EXPECT_THROW(Json("").as_number_total(), JsonError);
  EXPECT_THROW(Json("infinity").as_number(), JsonError);
}

TEST(JsonFormatNumber, NonFiniteTokens) {
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(JsonDump, IntegersPrintWithoutFraction) {
  EXPECT_EQ(Json(1e6).dump(0), "1000000");
  EXPECT_EQ(Json(-3).dump(0), "-3");
}

TEST(JsonFormatNumber, ShortestRoundTripPins) {
  // Byte-for-byte pins of the %g-presentation reconstruction over
  // std::to_chars shortest digits.  These are the cases where a naive
  // printf("%g") or plain to_chars would disagree with the canonical form.
  EXPECT_EQ(format_number(999999999999999.875), "999999999999999.9");
  EXPECT_EQ(format_number(5e-324), "4.94066e-324");
  EXPECT_EQ(format_number(1.7976931348623157e308), "1.7976931348623157e+308");
  EXPECT_EQ(format_number(0.0001), "0.0001");
  EXPECT_EQ(format_number(0.00001), "1e-05");
  EXPECT_EQ(format_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_number(-0.0), "-0");
  EXPECT_EQ(format_number(1e15), "1e+15");
  EXPECT_EQ(format_number(1e16), "1e+16");
  EXPECT_EQ(format_number(123456.789), "123456.789");
}

/// The historical definition of the canonical number text: integral
/// values below 1e15 in fixed form, otherwise printf %g at the smallest
/// precision in [6, 17] that parses back to the same double.
std::string probe_loop_format(double n) {
  char buffer[64];
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", n);
    return buffer;
  }
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, n);
    if (std::strtod(buffer, nullptr) == n) {
      break;
    }
  }
  return buffer;
}

TEST(JsonFormatNumber, MatchesThePrintfProbeLoopOverAMillionDoubles) {
  std::vector<double> values;
  const auto add = [&values](double value) {
    if (std::isfinite(value)) {  // the sentinels are pinned separately
      values.push_back(value);
    }
  };
  for (const double value : {0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()}) {
    add(value);
  }
  for (int e = -330; e <= 310; ++e) {  // every power of ten and its neighbour
    const double p = std::pow(10.0, e);
    add(p);
    add(-p);
    add(std::nextafter(p, 0.0));
  }
  std::mt19937_64 rng(20240611);
  // Random bit patterns: every exponent, sign and mantissa shape.
  while (values.size() < 500'000) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    add(value);
  }
  // Uniform draws across the magnitudes real results carry, where the
  // fixed/scientific switch and the integral fast path sit.
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int i = 0; values.size() < 1'000'000; ++i) {
    const double scale = std::pow(10.0, -8 + i % 28);  // 1e-8 .. 1e19
    add(unit(rng) * scale);
    add(std::round(unit(rng) * scale));
  }
  // Each value twice: the first call formats it and fills its memo slot,
  // the second is served from the memo; both must be the probe bytes.
  std::size_t mismatches = 0;
  std::size_t unmemoised = 0;
  for (const double value : values) {
    const std::string expected = probe_loop_format(value);
    const std::string actual = format_number(value);
    if (detail::memoised_number(value) != expected) {
      ++unmemoised;
    }
    const std::string repeat = format_number(value);
    if ((actual != expected || repeat != expected) && ++mismatches <= 10) {
      ADD_FAILURE() << "format_number(" << expected << ") wrote " << actual
                    << ", then " << repeat;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " doubles";
  EXPECT_EQ(unmemoised, 0u) << "of " << values.size() << " doubles";
}

/// The significant digits of the shortest round-trip form of `value`.
int shortest_digit_count(double value) {
  char buffer[64];
  const char* const end =
      std::to_chars(buffer, buffer + sizeof buffer, std::fabs(value), std::chars_format::scientific)
          .ptr;
  int digits = 0;
  for (const char* c = buffer; c < end && *c != 'e'; ++c) {
    digits += *c >= '0' && *c <= '9' ? 1 : 0;
  }
  return digits;
}

TEST(JsonFormatNumber, KernelEdgesMatchThePrintfProbeLoop) {
  // The shortest-digits kernel at the edges of its table and its
  // presentation rules, each value and its negative.
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {  // every power of two, subnormals included
    values.push_back(std::ldexp(1.0, e));
  }
  for (int e = -323; e <= 308; ++e) {  // every power of ten and its neighbours
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, std::numeric_limits<double>::infinity()));
  }
  for (const double value : {DBL_MIN, DBL_MAX, std::numeric_limits<double>::denorm_min()}) {
    values.push_back(value);
  }
  // Values whose shortest form has exactly 5, 6, 15, 16 and 17 digits:
  // the %.6g fallback's edge, and the top of the digit range, at
  // exponents across the fixed/scientific switch and the whole range.
  std::mt19937_64 rng(5616);
  for (const int digits : {5, 6, 15, 16, 17}) {
    int found = 0;
    for (int i = 0; found < 2000; ++i) {
      std::string text = std::to_string(1 + rng() % 9) + ".";
      for (int d = 1; d < digits; ++d) {
        text += static_cast<char>('0' + rng() % 10);
      }
      const int exponent = i % 2 == 0 ? static_cast<int>(rng() % 40) - 20
                                      : static_cast<int>(rng() % 600) - 300;
      const double value = std::strtod((text + "e" + std::to_string(exponent)).c_str(), nullptr);
      if (shortest_digit_count(value) == digits) {
        values.push_back(value);
        ++found;
      }
    }
  }
  std::size_t mismatches = 0;
  for (const double magnitude : values) {
    for (const double value : {magnitude, -magnitude}) {
      const std::string expected = probe_loop_format(value);
      const std::string fresh = format_number(value);
      const std::string memoised = format_number(value);
      if ((fresh != expected || memoised != expected) && ++mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << value << ": expected " << expected << ", wrote "
                      << fresh << ", then " << memoised;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << 2 * values.size() << " doubles";
  EXPECT_EQ(format_number(std::numeric_limits<double>::denorm_min()), "4.94066e-324");
  // Powers of two whose lopsided interval holds a 16-digit decimal that
  // %.16g does not print: the canonical form is the 17-digit one.
  EXPECT_EQ(format_number(0x1p-24), "5.9604644775390625e-08");
  EXPECT_EQ(format_number(-0x1p-24), "-5.9604644775390625e-08");
  EXPECT_EQ(format_number(0x1p-1017), "7.1202363472230444e-307");
}

TEST(JsonFormatNumber, MemoSlotCollisionsKeepEachNumbersBytes) {
  // Doubles sharing a memo slot evict each other; each still formats to
  // its own probe-loop bytes, whatever the slot held before.
  std::mt19937_64 rng(77);
  std::vector<double> by_slot(detail::kNumberMemoSlots, 0.0);
  std::vector<bool> seen(detail::kNumberMemoSlots, false);
  std::vector<std::pair<double, double>> pairs;
  std::uniform_real_distribution<double> unit(-1e9, 1e9);
  while (pairs.size() < 200) {
    const double value = unit(rng);
    const std::size_t slot = detail::number_memo_slot(std::bit_cast<std::uint64_t>(value));
    if (seen[slot] && by_slot[slot] != value) {
      pairs.emplace_back(by_slot[slot], value);
    }
    seen[slot] = true;
    by_slot[slot] = value;
  }
  for (const auto& [a, b] : pairs) {
    const std::string a_bytes = probe_loop_format(a);
    const std::string b_bytes = probe_loop_format(b);
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(format_number(a), a_bytes);
      EXPECT_EQ(detail::memoised_number(a), a_bytes);
      EXPECT_EQ(format_number(b), b_bytes);
      EXPECT_EQ(detail::memoised_number(b), b_bytes);
      EXPECT_TRUE(detail::memoised_number(a).empty()) << a_bytes << " survived " << b_bytes;
    }
  }
}

TEST(JsonFormatNumber, MemoKeepsSignedZerosAndTheLongestFormsApart) {
  // 0 and -0 compare equal but are distinct bit patterns, so distinct keys.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(format_number(0.0), "0");
    EXPECT_EQ(format_number(-0.0), "-0");
  }
  EXPECT_EQ(detail::memoised_number(0.0), "0");
  EXPECT_EQ(detail::memoised_number(-0.0), "-0");
  // The longest canonical forms fill kMaxNumberBytes exactly; they are
  // memoised and replayed whole.
  for (const double value : {-1.7976931348623157e308, -2.2250738585072014e-308,
                             -1.2345678901234567e-100, -0.00012345678901234567}) {
    const std::string expected = probe_loop_format(value);
    EXPECT_LE(expected.size(), detail::kMaxNumberBytes);
    EXPECT_EQ(format_number(value), expected);
    EXPECT_EQ(detail::memoised_number(value), expected);
    EXPECT_EQ(format_number(value), expected);
  }
  EXPECT_EQ(format_number(-1.7976931348623157e308).size(), detail::kMaxNumberBytes);
  EXPECT_EQ(format_number(-2.2250738585072014e-308).size(), detail::kMaxNumberBytes);
}

TEST(JsonDump, DumpToAppendsIdenticalBytes) {
  const Json v = parse_json(R"({"b": [1, 2.5, "x"], "a": true})");
  for (const int indent : {0, 2, 4}) {
    std::string out = "prefix:";
    v.dump_to(out, indent);
    EXPECT_EQ(out, "prefix:" + v.dump(indent));
  }
}

TEST(JsonDump, HashedDumpMatchesDigestOfBytes) {
  const Json v = parse_json(R"({"grid": [[1, 2], [3, 4]], "name": "run"})");
  std::string compact;
  const std::uint64_t digest = v.dump_to_hashed(compact, 0);
  EXPECT_EQ(compact, v.dump(0));
  EXPECT_EQ(digest, fnv1a64(compact));
  // canonical_digest() is the same hash without materializing the bytes.
  EXPECT_EQ(v.canonical_digest(), digest);
}

TEST(JsonParse, HashWhileParseMatchesCanonicalDigest) {
  // Keys already sorted and compact: the streaming digest must equal the
  // digest of the canonical dump, with zero extra passes.
  const std::string canonical = R"({"a":1,"b":[true,"s",2.5],"c":{"d":null}})";
  const ParsedJson parsed = parse_json_hashed(canonical);
  ASSERT_TRUE(parsed.canonical_digest.has_value());
  EXPECT_EQ(*parsed.canonical_digest, parsed.value.canonical_digest());
  EXPECT_EQ(*parsed.canonical_digest, fnv1a64(canonical));
}

TEST(JsonParse, HashWhileParseSurvivesWhitespaceAndPretty) {
  // The digest streams *canonical* bytes, so formatting never changes it.
  const ParsedJson compact = parse_json_hashed(R"({"a":1,"b":[2,3]})");
  const ParsedJson pretty = parse_json_hashed("{\n  \"a\": 1,\n  \"b\": [2, 3]\n}");
  ASSERT_TRUE(compact.canonical_digest.has_value());
  ASSERT_TRUE(pretty.canonical_digest.has_value());
  EXPECT_EQ(*compact.canonical_digest, *pretty.canonical_digest);
}

TEST(JsonParse, HashWhileParseDisabledByUnsortedKeys) {
  // Out-of-order keys would need a re-sort to produce canonical bytes, so
  // the streaming digest reports absent rather than lying.
  const ParsedJson parsed = parse_json_hashed(R"({"z": 1, "a": 2})");
  EXPECT_FALSE(parsed.canonical_digest.has_value());
  // The value itself is still fully parsed and canonicalized.
  EXPECT_EQ(parsed.value.dump(0), R"({"a":2,"z":1})");
}

TEST(JsonFile, ParseErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "/greenfpga_bad.json";
  {
    std::ofstream out(path);
    out << "{\"a\": !}\n";
  }
  try {
    (void)parse_json_file(path);
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.rfind(path + ": ", 0), 0u)
        << "message should lead with the path: " << message;
    EXPECT_NE(message.find("1:"), std::string::npos) << message;
  }
}

TEST(JsonFile, RoundTripThroughDisk) {
  const std::string path = ::testing::TempDir() + "/greenfpga_json_test.json";
  Json original = Json::object({{"x", 1.25}, {"y", Json::array({"a", "b"})}});
  write_json_file(path, original);
  const Json loaded = parse_json_file(path);
  EXPECT_EQ(loaded, original);
}

TEST(JsonFile, MissingFileThrows) {
  EXPECT_THROW(parse_json_file("/nonexistent/greenfpga.json"), JsonError);
}

// Round-trip property: parse(dump(v)) == v for varied numeric magnitudes.
class JsonNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(JsonNumberRoundTrip, DumpThenParsePreservesValue) {
  const Json v{GetParam()};
  const Json round = parse_json(v.dump(0));
  EXPECT_DOUBLE_EQ(round.as_number(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, JsonNumberRoundTrip,
                         ::testing::Values(0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5e-3, 856117.0,
                                           1e15, 123456.789, 5e-324));

}  // namespace
}  // namespace greenfpga::io
