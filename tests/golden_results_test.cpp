/// Golden regression suite for the structured result pipeline: pins the
/// canonical `--format json` output (`scenario::result_to_json`) of
/// every scenario kind against checked-in snapshots in tests/golden/,
/// the byte-identical round-trip `result_from_json(result_to_json(r)) == r`,
/// thread-count invariance of the JSON bytes, and `Engine::run_batch`
/// bit-identity against individual runs.
///
/// Regenerate deliberately with GREENFPGA_REGEN_GOLDEN=1 (see
/// golden_test_util.hpp).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "golden_result_specs.hpp"
#include "golden_test_util.hpp"
#include "io/json.hpp"
#include "report/result_frame.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::scenario {
namespace {

using golden::all_kinds;
using golden::run_kind;
using golden::spec_for;
using greenfpga::testing::check_against_golden;

class GoldenResults : public ::testing::TestWithParam<ScenarioKind> {};

TEST_P(GoldenResults, CanonicalJsonMatchesSnapshot) {
  const ScenarioKind kind = GetParam();
  check_against_golden("result_" + to_string(kind),
                       result_to_json(run_kind(kind)));
}

TEST_P(GoldenResults, RoundTripsThroughJsonValueAndText) {
  const ScenarioResult result = run_kind(GetParam());
  const io::Json json = result_to_json(result);
  // Value round-trip: the parsed result is the same result.
  EXPECT_TRUE(result_from_json(json) == result);
  // Text round-trip: serialize -> parse -> re-serialize is byte-identical
  // (shortest round-trip numbers, sorted keys).
  const std::string text = json.dump();
  EXPECT_EQ(result_to_json(result_from_json(io::parse_json(text))).dump(), text);
}

TEST_P(GoldenResults, JsonBytesAreThreadCountInvariant) {
  const std::string base = result_to_json(run_kind(GetParam(), 1)).dump();
  EXPECT_EQ(result_to_json(run_kind(GetParam(), 2)).dump(), base);
  EXPECT_EQ(result_to_json(run_kind(GetParam(), 8)).dump(), base);
}

TEST_P(GoldenResults, LowersIntoAtLeastOneFrame) {
  const ScenarioResult result = run_kind(GetParam());
  const std::vector<report::ResultFrame> frames = to_frames(result);
  ASSERT_FALSE(frames.empty());
  for (const report::ResultFrame& frame : frames) {
    EXPECT_FALSE(frame.name.empty());
    EXPECT_FALSE(frame.columns.empty());
    for (const std::vector<report::Cell>& row : frame.rows) {
      EXPECT_EQ(row.size(), frame.columns.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GoldenResults,
                         ::testing::ValuesIn(all_kinds()),
                         [](const ::testing::TestParamInfo<ScenarioKind>& info) {
                           return to_string(info.param);
                         });

TEST(GoldenResults, FrameLoweringShapes) {
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::compare)).front().rows.size(), 3u);
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::sweep)).front().rows.size(), 4u);
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::grid)).front().rows.size(), 6u);
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::breakeven)).front().rows.size(), 3u);
  const auto sensitivity = to_frames(run_kind(ScenarioKind::sensitivity));
  ASSERT_EQ(sensitivity.size(), 2u);
  EXPECT_EQ(sensitivity[0].name, "tornado");
  EXPECT_EQ(sensitivity[1].name, "montecarlo_summary");
}

TEST(GoldenResults, McSamplesFrameHasOneRowPerSample) {
  const ScenarioResult result = run_kind(ScenarioKind::montecarlo);
  const report::ResultFrame samples = mc_samples_frame(result);
  EXPECT_EQ(samples.rows.size(), 16u);
  // sample + 2 platform totals + 1 ratio column.
  EXPECT_EQ(samples.columns.size(), 4u);
  // Non-montecarlo results have no sample matrix.
  EXPECT_THROW(mc_samples_frame(run_kind(ScenarioKind::compare)), std::logic_error);
}

TEST(GoldenResults, BatchIsBitIdenticalToIndividualRuns) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioKind kind : all_kinds()) {
    specs.push_back(spec_for(kind));
  }
  std::vector<std::string> individual;
  for (const ScenarioKind kind : all_kinds()) {
    individual.push_back(result_to_json(run_kind(kind)).dump());
  }
  for (const int threads : {1, 4}) {
    const Engine engine(EngineOptions{.threads = threads});
    const std::vector<ScenarioResult> batch = engine.run_batch(specs);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(result_to_json(batch[i]).dump(), individual[i])
          << "kind " << to_string(specs[i].kind) << " at " << threads << " threads";
    }
  }
}

TEST(GoldenResults, BatchSharesSuitesAcrossDuplicateSpecs) {
  // Several specs over the same suite (the memo-sharing path) must still
  // produce per-spec results identical to solo runs.
  const ScenarioSpec sweep = spec_for(ScenarioKind::sweep);
  const ScenarioSpec grid = spec_for(ScenarioKind::grid);
  const Engine engine(EngineOptions{.threads = 4});
  const std::vector<ScenarioResult> batch = engine.run_batch({sweep, grid, sweep});
  EXPECT_TRUE(batch[0] == batch[2]);
  EXPECT_EQ(result_to_json(batch[0]).dump(),
            result_to_json(Engine(EngineOptions{.threads = 1}).run(sweep)).dump());
  EXPECT_EQ(result_to_json(batch[1]).dump(),
            result_to_json(Engine(EngineOptions{.threads = 1}).run(grid)).dump());
}

TEST(GoldenResults, NonFiniteResultValuesRoundTrip) {
  // A zero-baseline ratio or an unbounded breakeven solve produces
  // inf/NaN cells; the canonical JSON must stay total over them (the old
  // `null`-for-non-finite encoding corrupted the documented round-trip).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ScenarioResult result = run_kind(ScenarioKind::breakeven);
  ASSERT_TRUE(result.breakeven.has_value());
  result.breakeven->app_count = kInf;
  result.breakeven->lifetime_years = -kInf;
  result.breakeven->volume = std::numeric_limits<double>::quiet_NaN();

  const io::Json json = result_to_json(result);
  // Value round-trip (equality is canonical-bytes equality, so NaN cells
  // compare equal to themselves).
  EXPECT_TRUE(result_from_json(json) == result);
  // Text round-trip is byte-identical.
  const std::string text = json.dump();
  EXPECT_EQ(result_to_json(result_from_json(io::parse_json(text))).dump(), text);
  // The decoded values really are the non-finite doubles again.
  const ScenarioResult reread = result_from_json(io::parse_json(text));
  ASSERT_TRUE(reread.breakeven.has_value());
  EXPECT_EQ(reread.breakeven->app_count, kInf);
  EXPECT_EQ(reread.breakeven->lifetime_years, -kInf);
  ASSERT_TRUE(reread.breakeven->volume.has_value());
  EXPECT_TRUE(std::isnan(*reread.breakeven->volume));
}

TEST(GoldenResults, NonFiniteUncertaintyCellsRoundTrip) {
  // Inf/NaN in the Monte-Carlo payload (a zero-baseline sample makes the
  // ratio stream non-finite) survive the canonical round-trip too.
  ScenarioResult result = run_kind(ScenarioKind::montecarlo);
  ASSERT_TRUE(result.uncertainty.has_value());
  result.uncertainty->ratio.front().mean = std::numeric_limits<double>::infinity();
  result.uncertainty->sample_totals_kg.front().front() =
      std::numeric_limits<double>::quiet_NaN();
  const std::string text = result_to_json(result).dump();
  EXPECT_EQ(result_to_json(result_from_json(io::parse_json(text))).dump(), text);
  EXPECT_TRUE(result_from_json(io::parse_json(text)) == result);
}

TEST(GoldenResults, BreakevenJsonDistinguishesUnrequestedFromNoCrossover) {
  ScenarioSpec spec = spec_for(ScenarioKind::breakeven);
  spec.breakeven.solve_volume = false;
  const ScenarioResult result = Engine(EngineOptions{.threads = 1}).run(spec);
  const io::Json json = result_to_json(result);
  EXPECT_TRUE(json.at("breakeven").contains("app_count"));
  EXPECT_FALSE(json.at("breakeven").contains("volume"));
  EXPECT_TRUE(result_from_json(json) == result);
}

}  // namespace
}  // namespace greenfpga::scenario
