/// Tests for the Fig. 9 timeline kind (chip-lifetime replacement).

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

/// The Fig. 9 timeline spec for `domain`: 45-year horizon, 1-year
/// applications, 1e6 volume, quarter-year samples.
ScenarioSpec paper_spec(Domain domain) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::timeline, domain);
  spec.schedule.lifetime_years = 1.0;
  spec.schedule.volume = 1e6;
  spec.timeline = {.horizon_years = 45.0, .step_years = 0.25};
  return spec;
}

TimelineSeries run(const ScenarioSpec& spec) { return *Engine().run(spec).timeline; }

TEST(Timeline, SeriesCoversHorizon) {
  const TimelineSeries series = run(paper_spec(Domain::dnn));
  ASSERT_FALSE(series.time_years.empty());
  EXPECT_DOUBLE_EQ(series.time_years.front(), 0.0);
  EXPECT_DOUBLE_EQ(series.time_years.back(), 45.0);
  EXPECT_EQ(series.time_years.size(), series.asic_cumulative_kg.size());
  EXPECT_EQ(series.time_years.size(), series.fpga_cumulative_kg.size());
}

TEST(Timeline, CumulativeSeriesNeverDecrease) {
  const TimelineSeries series = run(paper_spec(Domain::dnn));
  for (std::size_t i = 1; i < series.time_years.size(); ++i) {
    EXPECT_GE(series.asic_cumulative_kg[i], series.asic_cumulative_kg[i - 1]);
    EXPECT_GE(series.fpga_cumulative_kg[i], series.fpga_cumulative_kg[i - 1]);
  }
}

TEST(Timeline, FpgaFleetRepurchasedEveryFifteenYears) {
  const TimelineSeries series = run(paper_spec(Domain::dnn));
  // 45-year horizon, 15-year FPGA service life: purchases at 0, 15, 30.
  ASSERT_EQ(series.fpga_purchase_years.size(), 3u);
  EXPECT_DOUBLE_EQ(series.fpga_purchase_years[0], 0.0);
  EXPECT_DOUBLE_EQ(series.fpga_purchase_years[1], 15.0);
  EXPECT_DOUBLE_EQ(series.fpga_purchase_years[2], 30.0);
}

TEST(Timeline, FpgaJumpsAtServiceLifeBoundaries) {
  const TimelineSeries series = run(paper_spec(Domain::dnn));
  // Find samples just before and at year 15: the FPGA step must exceed the
  // typical between-year step (operation + appdev) by the fleet embodied.
  const auto at = [&](double year) {
    for (std::size_t i = 0; i < series.time_years.size(); ++i) {
      if (series.time_years[i] >= year - 1e-9) return i;
    }
    return series.time_years.size() - 1;
  };
  const double jump_15 =
      series.fpga_cumulative_kg[at(15.0)] - series.fpga_cumulative_kg[at(15.0) - 1];
  const double step_14 =
      series.fpga_cumulative_kg[at(14.0)] - series.fpga_cumulative_kg[at(14.0) - 1];
  EXPECT_GT(jump_15, 10.0 * step_14)
      << "fleet re-purchase at year 15 must dominate a routine quarter";
}

TEST(Timeline, AsicStaircaseHasNoFifteenYearJump) {
  // ASIC chips are re-manufactured every application (yearly) anyway, so
  // year 15 looks like any other year.
  const TimelineSeries series = run(paper_spec(Domain::dnn));
  std::vector<double> yearly_steps;
  for (double year = 1.0; year <= 45.0; year += 1.0) {
    const auto index = static_cast<std::size_t>(year / 0.25);
    yearly_steps.push_back(series.asic_cumulative_kg[index] -
                           series.asic_cumulative_kg[index - 4]);
  }
  const double year15 = yearly_steps[14];
  const double year14 = yearly_steps[13];
  EXPECT_NEAR(year15 / year14, 1.0, 0.01);
}

TEST(Timeline, ShortHorizonHasSinglePurchase) {
  ScenarioSpec spec = paper_spec(Domain::dnn);
  spec.timeline.horizon_years = 10.0;
  const TimelineSeries series = run(spec);
  EXPECT_EQ(series.fpga_purchase_years.size(), 1u);
}

TEST(Timeline, OneYearAppsFavourFpgaForDnn) {
  // Fig. 9 story: with 1-year applications, DNN FPGAs stay below ASICs
  // even across fleet replacements.
  const TimelineSeries series = run(paper_spec(Domain::dnn));
  EXPECT_LT(series.fpga_cumulative_kg.back(), series.asic_cumulative_kg.back());
}

TEST(Timeline, ImgprocSeesMultipleCrossovers) {
  // Fig. 9 (ImgProc): the 15/30-year jumps produce repeated A2F/F2A flips.
  const TimelineSeries series = run(paper_spec(Domain::imgproc));
  const auto crossovers = series.crossovers();
  EXPECT_GE(crossovers.size(), 2u)
      << "paper reports multiple A2F and F2A crossovers for ImgProc";
}

TEST(Timeline, CryptoFpgaAlwaysBelow) {
  const TimelineSeries series = run(paper_spec(Domain::crypto));
  for (std::size_t i = 1; i < series.time_years.size(); ++i) {
    EXPECT_LT(series.fpga_cumulative_kg[i], series.asic_cumulative_kg[i])
        << "at year " << series.time_years[i];
  }
}

TEST(Timeline, InvalidParametersThrow) {
  ScenarioSpec spec = paper_spec(Domain::dnn);
  spec.timeline.horizon_years = 0.0;
  EXPECT_THROW(run(spec), std::invalid_argument);
  spec = paper_spec(Domain::dnn);
  spec.schedule.volume = 0.0;
  EXPECT_THROW(run(spec), std::invalid_argument);
  spec = paper_spec(Domain::dnn);
  spec.timeline.step_years = -1.0;
  EXPECT_THROW(run(spec), std::invalid_argument);
}

}  // namespace
}  // namespace greenfpga::scenario
