/// Calibration guard: pins the paper's headline results to bands so that a
/// change in any substrate that would silently alter the reproduction story
/// fails CI.  Bands and documented deviations: DESIGN.md §4,
/// EXPERIMENTS.md.

#include <gtest/gtest.h>

#include "core/comparator.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga {
namespace {

using namespace units::unit;
using core::paper_schedule;
using device::Domain;
using scenario::CrossoverKind;
using scenario::AxisSpec;
using scenario::SweepVariable;

/// A paper-suite sweep-kind spec for `domain` over `axis`, with N_app = 5,
/// T_i = 2 y and N_vol = 1e6 unless swept.
scenario::SweepSeries sweep(Domain domain, AxisSpec axis) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, domain);
  spec.schedule.app_count = 5;
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {std::move(axis)};
  return scenario::Engine().run(spec).sweep_series();
}

scenario::SweepSeries sweep_app_count(Domain domain, int to) {
  return sweep(domain, AxisSpec::linear(SweepVariable::app_count, 1, to, to));
}

scenario::SweepSeries sweep_lifetime(Domain domain, std::vector<double> lifetimes) {
  return sweep(domain, AxisSpec::list(SweepVariable::lifetime_years, std::move(lifetimes)));
}

scenario::SweepSeries sweep_volume(Domain domain, std::vector<double> volumes) {
  return sweep(domain, AxisSpec::list(SweepVariable::volume, std::move(volumes)));
}

/// The paper-suite comparison at one (N_app, T_i, N_vol) point.
core::Comparison evaluate_point(Domain domain, int app_count, units::TimeSpan lifetime,
                                double volume) {
  return core::compare(core::LifecycleModel(core::paper_suite()),
                       device::domain_testcase(domain),
                       paper_schedule(domain, app_count, lifetime, volume));
}

// --- Fig. 4: impact of number of applications (T_i = 2 y, N_vol = 1e6) -----

TEST(CalibrationFig4, DnnA2fNearSixApplications) {
  const auto series = sweep_app_count(Domain::dnn, 12);
  const auto a2f = first_crossover(series.crossovers(), CrossoverKind::a2f);
  ASSERT_TRUE(a2f.has_value()) << "DNN must have an A2F crossover";
  EXPECT_GE(*a2f, 4.5) << "paper: A2F after 6 applications";
  EXPECT_LE(*a2f, 6.5);
}

TEST(CalibrationFig4, ImgprocA2fBeyondEightApplications) {
  // Paper: "the A2F crossover does not happen until N_app = 8; extending
  // the axis, 12 applications are required."
  const auto series = sweep_app_count(Domain::imgproc, 16);
  const auto a2f = first_crossover(series.crossovers(), CrossoverKind::a2f);
  ASSERT_TRUE(a2f.has_value());
  EXPECT_GE(*a2f, 8.0);
  EXPECT_LE(*a2f, 14.0);
}

TEST(CalibrationFig4, CryptoFpgaWinsFromFirstApplication) {
  const auto series = sweep_app_count(Domain::crypto, 8);
  for (const double ratio : series.ratios()) {
    EXPECT_LT(ratio, 1.0);
  }
}

TEST(CalibrationFig4, DomainOrderingDnnBeforeImgproc) {
  // The DNN FPGA amortises sooner than the ImgProc FPGA (smaller area
  // overhead): its A2F point must come first.
  const auto dnn = sweep_app_count(Domain::dnn, 16);
  const auto imgproc = sweep_app_count(Domain::imgproc, 16);
  const auto dnn_a2f = first_crossover(dnn.crossovers(), CrossoverKind::a2f);
  const auto img_a2f = first_crossover(imgproc.crossovers(), CrossoverKind::a2f);
  ASSERT_TRUE(dnn_a2f && img_a2f);
  EXPECT_LT(*dnn_a2f, *img_a2f);
}

// --- Fig. 5: impact of application lifetime (N_app = 5, N_vol = 1e6) -------

TEST(CalibrationFig5, DnnF2aNearOnePointSixYears) {
  const std::vector<double> lifetimes = scenario::linspace(0.2, 2.5, 47);
  const auto series = sweep_lifetime(Domain::dnn, lifetimes);
  const auto f2a = first_crossover(series.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(f2a.has_value()) << "DNN must flip to ASIC at long app lifetimes";
  EXPECT_GE(*f2a, 1.2) << "paper: F2A at about 1.6 years";
  EXPECT_LE(*f2a, 2.0);
}

TEST(CalibrationFig5, CryptoFpgaAlwaysGreener) {
  const std::vector<double> lifetimes = scenario::linspace(0.2, 2.5, 24);
  const auto series = sweep_lifetime(Domain::crypto, lifetimes);
  for (const double ratio : series.ratios()) {
    EXPECT_LT(ratio, 1.0);
  }
}

TEST(CalibrationFig5, ImgprocAsicAlwaysGreener) {
  const std::vector<double> lifetimes = scenario::linspace(0.2, 2.5, 24);
  const auto series = sweep_lifetime(Domain::imgproc, lifetimes);
  for (const double ratio : series.ratios()) {
    EXPECT_GT(ratio, 1.0) << "paper: ASIC sustainable for ImgProc at any lifetime";
  }
}

// --- Fig. 6: impact of application volume (N_app = 5, T_i = 2 y) -----------

TEST(CalibrationFig6, DnnF2aAtHighVolume) {
  // Paper reports ~2 M (extrapolated beyond its 1 M axis).  The linear
  // Eqs. (1)-(2) cannot place this above 1 M while also matching Figs. 4-5
  // at the shared (N_app=5, T=2 y, V=1e6) point -- see EXPERIMENTS.md for
  // the analysis.  We pin the crossover to [0.4 M, 3 M]: high-volume, same
  // story ("FPGAs are sustainable for lower application volumes").
  const std::vector<double> volumes = scenario::logspace(1e3, 1e7, 41);
  const auto series = sweep_volume(Domain::dnn, volumes);
  const auto f2a = first_crossover(series.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(f2a.has_value());
  EXPECT_GE(*f2a, 4e5);
  EXPECT_LE(*f2a, 3e6);
}

TEST(CalibrationFig6, ImgprocF2aAtLowerVolumeThanDnn) {
  // Paper: ImgProc F2A at ~300 K vs DNN at ~2 M (roughly 7x apart); we
  // preserve the ordering and magnitude gap.
  const std::vector<double> volumes = scenario::logspace(1e3, 1e7, 41);
  const auto imgproc = sweep_volume(Domain::imgproc, volumes);
  const auto dnn = sweep_volume(Domain::dnn, volumes);
  const auto img_f2a = first_crossover(imgproc.crossovers(), CrossoverKind::f2a);
  const auto dnn_f2a = first_crossover(dnn.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(img_f2a && dnn_f2a);
  EXPECT_GE(*img_f2a, 1e5);
  EXPECT_LE(*img_f2a, 6e5);
  EXPECT_GT(*dnn_f2a / *img_f2a, 3.0) << "DNN tolerates much higher volumes";
}

TEST(CalibrationFig6, CryptoFpgaGreenerAtEveryVolume) {
  const std::vector<double> volumes = scenario::logspace(1e3, 1e7, 17);
  const auto series = sweep_volume(Domain::crypto, volumes);
  for (const double ratio : series.ratios()) {
    EXPECT_LT(ratio, 1.0);
  }
}

// --- Fig. 2: motivation (DNN, 1 vs 10 applications) -------------------------

TEST(CalibrationFig2, FpgaInitiallyWorseThenRoughlyQuarterLower) {
  const auto one = evaluate_point(Domain::dnn, 1, 2.0 * years, 1e6);
  EXPECT_GT(one.ratio(), 1.0) << "single application: FPGA CFP must exceed ASIC";
  const auto ten = evaluate_point(Domain::dnn, 10, 2.0 * years, 1e6);
  // Paper: 25 % lower at ten applications; accept 15-45 %.
  EXPECT_LT(ten.ratio(), 0.85);
  EXPECT_GT(ten.ratio(), 0.55);
}

// --- Figs. 10-11: industry testcases ----------------------------------------

core::PlatformCfp industry_fpga_result(const device::ChipSpec& fpga) {
  const core::LifecycleModel model(core::industry_suite());
  workload::Application app;
  app.name = "app";
  app.lifetime = 2.0 * years;
  app.volume = 1e6;
  return model.evaluate_fpga(fpga, workload::homogeneous_schedule(3, app));
}

core::PlatformCfp industry_asic_result(const device::ChipSpec& asic) {
  const core::LifecycleModel model(core::industry_suite());
  workload::Application app;
  app.name = "app";
  app.lifetime = 6.0 * years;
  app.volume = 1e6;
  return model.evaluate_asic(asic, {app});
}

TEST(CalibrationFig10, OperationalDominatesIndustryFpgas) {
  for (const device::ChipSpec& fpga : {device::industry_fpga1(), device::industry_fpga2()}) {
    const auto result = industry_fpga_result(fpga);
    EXPECT_GT(result.total.operational.canonical(),
              0.5 * result.total.total().canonical())
        << fpga.name;
    // Followed by manufacturing, then design (paper ordering).
    EXPECT_GT(result.total.manufacturing, result.total.design) << fpga.name;
    EXPECT_GT(result.total.design, result.total.packaging) << fpga.name;
  }
}

TEST(CalibrationFig10, DesignIsAboutFifteenPercentOfEmbodied) {
  for (const device::ChipSpec& fpga : {device::industry_fpga1(), device::industry_fpga2()}) {
    const auto result = industry_fpga_result(fpga);
    const double share =
        result.total.design.canonical() / result.total.embodied().canonical();
    EXPECT_GT(share, 0.08) << fpga.name;
    EXPECT_LT(share, 0.22) << fpga.name;
  }
}

TEST(CalibrationFig10, AppDevIsMinimalEvenAfterThreeReconfigurations) {
  for (const device::ChipSpec& fpga : {device::industry_fpga1(), device::industry_fpga2()}) {
    const auto result = industry_fpga_result(fpga);
    EXPECT_LT(result.total.app_dev.canonical(),
              0.01 * result.total.total().canonical())
        << fpga.name;
  }
}

TEST(CalibrationFig11, OperationalDominatesIndustryAsics) {
  for (const device::ChipSpec& asic : {device::industry_asic1(), device::industry_asic2()}) {
    const auto result = industry_asic_result(asic);
    EXPECT_GT(result.total.operational.canonical(),
              0.5 * result.total.total().canonical())
        << asic.name;
    EXPECT_GT(result.total.manufacturing, result.total.design) << asic.name;
  }
}

TEST(CalibrationFig11, EolIsASmallContributor) {
  for (const device::ChipSpec& asic : {device::industry_asic1(), device::industry_asic2()}) {
    const auto result = industry_asic_result(asic);
    EXPECT_LT(std::abs(result.total.eol.canonical()),
              0.02 * result.total.embodied().canonical())
        << asic.name;
  }
}

// --- Headline claims from the abstract/conclusion ---------------------------

TEST(CalibrationHeadline, FpgaSustainableBelowSixteenMonthLifetimes) {
  // Claim (i): application lifetimes below ~1.6 years favour the FPGA
  // (DNN domain, paper defaults otherwise).
  const auto comparison = evaluate_point(Domain::dnn, 5, 1.2 * years, 1e6);
  EXPECT_LT(comparison.ratio(), 1.0);
}

TEST(CalibrationHeadline, FpgaSustainableAboveFiveApplications) {
  // Claim (ii): more than five applications favour the FPGA.
  const auto comparison = evaluate_point(Domain::dnn, 7, 2.0 * years, 1e6);
  EXPECT_LT(comparison.ratio(), 1.0);
}

TEST(CalibrationHeadline, FpgaSustainableAtLowVolume) {
  // Claim (iii): low application volumes favour the FPGA (all domains at
  // 100 K units, 5 apps, 2-year lifetimes).
  for (const Domain domain : device::all_domains()) {
    const auto comparison = evaluate_point(domain, 5, 2.0 * years, 1e5);
    EXPECT_LT(comparison.ratio(), 1.0) << to_string(domain);
  }
}

}  // namespace
}  // namespace greenfpga
