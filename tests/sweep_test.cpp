/// Tests for the sweep kind's series view and crossover detection.

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

/// Runs a sweep-kind spec over `axis` at N_app = 5, T_i = 2 y,
/// N_vol = 1e6 unless swept.
SweepSeries sweep(AxisSpec axis, Domain domain = Domain::dnn) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, domain);
  spec.schedule.app_count = 5;
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {std::move(axis)};
  return Engine().run(spec).sweep_series();
}

TEST(FindCrossovers, DetectsSingleA2f) {
  // FPGA starts above the ASIC and dips below between x = 2 and 3.
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> asic{10, 20, 30, 40};
  const std::vector<double> fpga{25, 26, 27, 28};
  const auto crossovers = find_crossovers(x, asic, fpga);
  ASSERT_EQ(crossovers.size(), 1u);
  EXPECT_EQ(crossovers[0].kind, CrossoverKind::a2f);
  // fpga-asic: +15, +6, -3 -> crossing between 2 and 3 at t = 6/9.
  EXPECT_NEAR(crossovers[0].x, 2.0 + 6.0 / 9.0, 1e-12);
}

TEST(FindCrossovers, DetectsF2a) {
  const std::vector<double> x{0, 1};
  const std::vector<double> asic{10, 10};
  const std::vector<double> fpga{5, 15};
  const auto crossovers = find_crossovers(x, asic, fpga);
  ASSERT_EQ(crossovers.size(), 1u);
  EXPECT_EQ(crossovers[0].kind, CrossoverKind::f2a);
  EXPECT_NEAR(crossovers[0].x, 0.5, 1e-12);
}

TEST(FindCrossovers, MultipleCrossings) {
  const std::vector<double> x{0, 1, 2, 3};
  const std::vector<double> asic{10, 10, 10, 10};
  const std::vector<double> fpga{5, 15, 5, 15};
  const auto crossovers = find_crossovers(x, asic, fpga);
  ASSERT_EQ(crossovers.size(), 3u);
  EXPECT_EQ(crossovers[0].kind, CrossoverKind::f2a);
  EXPECT_EQ(crossovers[1].kind, CrossoverKind::a2f);
  EXPECT_EQ(crossovers[2].kind, CrossoverKind::f2a);
}

TEST(FindCrossovers, NoCrossingsOnParallelCurves) {
  const std::vector<double> x{0, 1, 2};
  const std::vector<double> asic{10, 20, 30};
  const std::vector<double> fpga{5, 15, 25};
  EXPECT_TRUE(find_crossovers(x, asic, fpga).empty());
}

TEST(FindCrossovers, ExactTieAtSample) {
  const std::vector<double> x{0, 1, 2};
  const std::vector<double> asic{10, 10, 10};
  const std::vector<double> fpga{12, 10, 8};
  const auto crossovers = find_crossovers(x, asic, fpga);
  ASSERT_EQ(crossovers.size(), 1u);
  EXPECT_EQ(crossovers[0].kind, CrossoverKind::a2f);
  EXPECT_NEAR(crossovers[0].x, 1.0, 1e-12);
}

TEST(FindCrossovers, IdenticalCurvesHaveNoCrossing) {
  const std::vector<double> x{0, 1, 2};
  const std::vector<double> same{10, 20, 30};
  EXPECT_TRUE(find_crossovers(x, same, same).empty());
}

TEST(FindCrossovers, LengthMismatchThrows) {
  const std::vector<double> x{0, 1};
  const std::vector<double> a{1, 2};
  const std::vector<double> f{1};
  EXPECT_THROW(find_crossovers(x, a, f), std::invalid_argument);
}

TEST(FirstCrossover, FiltersByKind) {
  const std::vector<Crossover> crossovers{{1.0, CrossoverKind::f2a},
                                          {2.0, CrossoverKind::a2f},
                                          {3.0, CrossoverKind::a2f}};
  EXPECT_EQ(first_crossover(crossovers, CrossoverKind::a2f), 2.0);
  EXPECT_EQ(first_crossover(crossovers, CrossoverKind::f2a), 1.0);
  EXPECT_EQ(first_crossover({}, CrossoverKind::a2f), std::nullopt);
}

TEST(SweepEngine, AppCountSweepShape) {
  const SweepSeries series = sweep(AxisSpec::linear(SweepVariable::app_count, 1, 8, 8));
  ASSERT_EQ(series.x.size(), 8u);
  EXPECT_EQ(series.parameter, "N_app");
  EXPECT_EQ(series.domain, Domain::dnn);
  EXPECT_DOUBLE_EQ(series.x.front(), 1.0);
  EXPECT_DOUBLE_EQ(series.x.back(), 8.0);
  // ASIC totals grow linearly with app count; FPGA sub-linearly.
  const auto asic = series.asic_totals_kg();
  EXPECT_NEAR(asic[7] / asic[0], 8.0, 1e-6);
}

TEST(SweepEngine, AsicTotalsIndependentOfPlatformReuse) {
  // In a lifetime sweep, both platforms' totals increase with T.
  const SweepSeries series = sweep(AxisSpec::list(SweepVariable::lifetime_years, {0.5, 1.0, 2.0}));
  const auto asic = series.asic_totals_kg();
  const auto fpga = series.fpga_totals_kg();
  EXPECT_LT(asic[0], asic[2]);
  EXPECT_LT(fpga[0], fpga[2]);
}

TEST(SweepEngine, VolumeSweepMonotone) {
  const SweepSeries series = sweep(AxisSpec::list(SweepVariable::volume, {1e3, 1e4, 1e5, 1e6}));
  const auto asic = series.asic_totals_kg();
  const auto fpga = series.fpga_totals_kg();
  for (std::size_t i = 1; i < asic.size(); ++i) {
    EXPECT_GT(asic[i], asic[i - 1]);
    EXPECT_GT(fpga[i], fpga[i - 1]);
  }
}

TEST(SweepEngine, RatiosMatchTotalsElementwise) {
  const SweepSeries series = sweep(AxisSpec::linear(SweepVariable::app_count, 1, 4, 4));
  const auto ratios = series.ratios();
  const auto asic = series.asic_totals_kg();
  const auto fpga = series.fpga_totals_kg();
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    EXPECT_DOUBLE_EQ(ratios[i], fpga[i] / asic[i]);
  }
}

TEST(SweepEngine, InvalidRangesThrow) {
  EXPECT_THROW(sweep(AxisSpec::linear(SweepVariable::app_count, 0, 5, 6)),
               std::invalid_argument);
  EXPECT_THROW(sweep(AxisSpec::list(SweepVariable::app_count, {})), std::invalid_argument);
  EXPECT_THROW(sweep(AxisSpec::linear(SweepVariable::app_count, 1, 5, 1)),
               std::invalid_argument);
}

TEST(Spacing, LinspaceEndpointsAndCount) {
  const std::vector<double> values = linspace(0.2, 2.5, 24);
  ASSERT_EQ(values.size(), 24u);
  EXPECT_DOUBLE_EQ(values.front(), 0.2);
  EXPECT_DOUBLE_EQ(values.back(), 2.5);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_GT(values[i], values[i - 1]);
  }
}

TEST(Spacing, LogspaceEndpointsAndGrowth) {
  const std::vector<double> values = logspace(1e3, 1e6, 4);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values.front(), 1e3);
  EXPECT_DOUBLE_EQ(values.back(), 1e6);
  EXPECT_NEAR(values[1], 1e4, 1.0);
  EXPECT_NEAR(values[2], 1e5, 10.0);
}

TEST(Spacing, InvalidInputsThrow) {
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(logspace(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(logspace(-1.0, 1.0, 4), std::invalid_argument);
}

TEST(ToString, CrossoverKinds) {
  EXPECT_EQ(to_string(CrossoverKind::a2f), "A2F");
  EXPECT_EQ(to_string(CrossoverKind::f2a), "F2A");
}

// Property: every domain's N_app sweep has the FPGA series growing strictly
// slower than the ASIC series (the reconfigurability advantage).
class SweepSlopeProperty : public ::testing::TestWithParam<Domain> {};

TEST_P(SweepSlopeProperty, FpgaMarginalCostBelowAsic) {
  const SweepSeries series =
      sweep(AxisSpec::linear(SweepVariable::app_count, 1, 8, 8), GetParam());
  const auto asic = series.asic_totals_kg();
  const auto fpga = series.fpga_totals_kg();
  for (std::size_t i = 1; i < asic.size(); ++i) {
    const double asic_marginal = asic[i] - asic[i - 1];
    const double fpga_marginal = fpga[i] - fpga[i - 1];
    EXPECT_LT(fpga_marginal, asic_marginal) << "at N_app = " << series.x[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, SweepSlopeProperty,
                         ::testing::Values(Domain::dnn, Domain::imgproc, Domain::crypto));

}  // namespace
}  // namespace greenfpga::scenario
