/// Tests for the breakeven kind's closed-form solves, cross-validated
/// against the sweep kind's scan-and-interpolate crossovers.

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

constexpr BreakevenSpec kLifetimeOnly{
    .solve_app_count = false, .solve_lifetime = true, .solve_volume = false};
constexpr BreakevenSpec kVolumeOnly{
    .solve_app_count = false, .solve_lifetime = false, .solve_volume = true};

/// Runs a breakeven-kind spec for `domain` with the schedule held at
/// `context`, solving for the variables `which` selects.
BreakevenReport solve(Domain domain, const BreakevenContext& context = {},
                      BreakevenSpec which = {},
                      const core::ModelSuite& suite = core::paper_suite()) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::breakeven, domain);
  spec.suite = suite;
  spec.schedule.app_count = context.app_count;
  spec.schedule.lifetime_years = context.app_lifetime.in(years);
  spec.schedule.volume = context.app_volume;
  spec.breakeven = which;
  return *Engine().run(spec).breakeven;
}

/// Runs a sweep-kind spec for `domain` over `axis` at N_app = 5,
/// T_i = 2 y, N_vol = 1e6 unless swept.
SweepSeries sweep(Domain domain, AxisSpec axis) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, domain);
  spec.schedule.app_count = 5;
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {std::move(axis)};
  return Engine().run(spec).sweep_series();
}

TEST(Breakeven, AppCountMatchesSweepCrossover) {
  const auto analytic = solve(Domain::dnn).app_count;
  const auto series = sweep(Domain::dnn, AxisSpec::linear(SweepVariable::app_count, 1, 12, 12));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::a2f);
  ASSERT_TRUE(analytic && scanned);
  EXPECT_NEAR(*analytic, *scanned, 1e-6);
}

TEST(Breakeven, LifetimeMatchesSweepCrossover) {
  const auto analytic = solve(Domain::dnn).lifetime_years;
  const auto series =
      sweep(Domain::dnn, AxisSpec::linear(SweepVariable::lifetime_years, 0.2, 2.5, 47));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(analytic && scanned);
  // The sweep interpolates between samples; the solver is exact.
  EXPECT_NEAR(*analytic, *scanned, 0.01);
}

TEST(Breakeven, VolumeMatchesSweepCrossover) {
  const auto analytic = solve(Domain::dnn).volume;
  const auto series = sweep(Domain::dnn, AxisSpec::log(SweepVariable::volume, 1e3, 1e7, 81));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(analytic && scanned);
  // Log-spaced scanning linearly interpolates a slightly curved chord;
  // exact solver within 2 %.
  EXPECT_NEAR(*analytic / *scanned, 1.0, 0.02);
}

TEST(Breakeven, ImgprocVolumeAndAppCount) {
  const auto volume = solve(Domain::imgproc).volume;
  ASSERT_TRUE(volume.has_value());
  EXPECT_GT(*volume, 1e5);
  EXPECT_LT(*volume, 6e5);
  // ImgProc A2F sits past 8 apps; at T = 2y and 1e6 the solver agrees.
  const auto apps = solve(Domain::imgproc).app_count;
  ASSERT_TRUE(apps.has_value());
  EXPECT_GT(*apps, 8.0);
}

TEST(Breakeven, CryptoHasNoPositiveBreakevens) {
  // Crypto: the FPGA dominates from the first application; the difference
  // line never crosses zero at positive x.
  const BreakevenReport report = solve(Domain::crypto);
  EXPECT_FALSE(report.app_count.has_value());
  EXPECT_FALSE(report.volume.has_value());
}

TEST(Breakeven, ContextChangesTheAnswer) {
  // More applications push the volume break-even outward (more reuse to
  // amortise), until past the app-count crossover (~5.2 for DNN) the FPGA
  // wins at every volume and the break-even disappears.
  BreakevenContext four{};
  four.app_count = 4;
  BreakevenContext five{};
  five.app_count = 5;
  BreakevenContext seven{};
  seven.app_count = 7;
  const auto at_four = solve(Domain::dnn, four, kVolumeOnly).volume;
  const auto at_five = solve(Domain::dnn, five, kVolumeOnly).volume;
  ASSERT_TRUE(at_four.has_value());
  ASSERT_TRUE(at_five.has_value());
  EXPECT_GT(*at_five, *at_four);
  EXPECT_FALSE(solve(Domain::dnn, seven, kVolumeOnly).volume.has_value())
      << "past the app-count crossover the FPGA wins at every volume";
}

TEST(Breakeven, RejectsPerYearAccounting) {
  core::ModelSuite suite = core::paper_suite();
  suite.appdev.accounting = core::AppDevAccounting::per_year;
  // The error names the kind the user ran and where to go instead.
  try {
    (void)solve(Domain::dnn, {}, {}, suite);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "breakeven: per-year accounting makes totals bilinear in (T, N_app); "
              "use a sweep spec instead");
  }
}

TEST(Breakeven, RejectsMultiFleetHorizons) {
  // 10 apps x 2 years = 20 years > the FPGA's 15-year service life.
  BreakevenContext context{};
  context.app_count = 10;
  EXPECT_THROW(solve(Domain::dnn, context, kLifetimeOnly), std::invalid_argument);
}

// Property: for every domain where the sweep finds an N_app crossover, the
// solver agrees to 1e-6 (exactness of the affine model).
class BreakevenAgreement : public ::testing::TestWithParam<Domain> {};

TEST_P(BreakevenAgreement, SolverAndSweepAgree) {
  const auto analytic = solve(GetParam()).app_count;
  const auto series = sweep(GetParam(), AxisSpec::linear(SweepVariable::app_count, 1, 16, 16));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::a2f);
  if (scanned.has_value()) {
    ASSERT_TRUE(analytic.has_value());
    EXPECT_NEAR(*analytic, *scanned, 1e-6);
  } else {
    EXPECT_FALSE(analytic.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, BreakevenAgreement,
                         ::testing::Values(Domain::dnn, Domain::imgproc, Domain::crypto));

}  // namespace
}  // namespace greenfpga::scenario
