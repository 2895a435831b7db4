/// Cross-module property tests: conservation, scaling and invariance laws
/// that any correct implementation of Eqs. (1)-(7) must satisfy,
/// parameterised over domains, volumes and model knobs.

#include <gtest/gtest.h>

#include "core/comparator.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga {
namespace {

using namespace units::unit;
using core::CfpBreakdown;
using core::LifecycleModel;
using core::ModelSuite;
using device::Domain;

constexpr double kTolerance = 1e-9;

double relative_difference(double a, double b) {
  return std::fabs(a - b) / std::max(std::fabs(a), std::fabs(b));
}

// ---------------------------------------------------------------------------
// Conservation: component sums equal totals everywhere.
// ---------------------------------------------------------------------------

class DomainProperty : public ::testing::TestWithParam<Domain> {
 protected:
  LifecycleModel model_{core::paper_suite()};
  device::DomainTestcase testcase_ = device::domain_testcase(GetParam());
};

TEST_P(DomainProperty, BreakdownComponentsSumToTotal) {
  for (const device::ChipSpec* chip : {&testcase_.asic, &testcase_.fpga}) {
    const auto result = model_.evaluate(*chip, core::paper_schedule(GetParam()));
    const CfpBreakdown& b = result.total;
    const double component_sum = b.design.canonical() + b.manufacturing.canonical() +
                                 b.packaging.canonical() + b.eol.canonical() +
                                 b.operational.canonical() + b.app_dev.canonical();
    EXPECT_LT(relative_difference(component_sum, b.total().canonical()), kTolerance)
        << chip->name;
    EXPECT_LT(relative_difference(b.embodied().canonical() + b.deployment().canonical(),
                                  b.total().canonical()),
              kTolerance);
  }
}

TEST_P(DomainProperty, PerApplicationAttributionsConserveTotals) {
  for (const device::ChipSpec* chip : {&testcase_.asic, &testcase_.fpga}) {
    const auto result = model_.evaluate(*chip, core::paper_schedule(GetParam()));
    CfpBreakdown accumulated;
    for (const core::ApplicationCfp& app : result.per_application) {
      accumulated += app.cfp;
    }
    // FPGA platforms keep embodied carbon outside the per-app attribution;
    // deployment carbon must still be conserved exactly.
    EXPECT_LT(relative_difference(accumulated.deployment().canonical(),
                                  result.total.deployment().canonical()),
              kTolerance)
        << chip->name;
  }
}

// ---------------------------------------------------------------------------
// Scaling laws.
// ---------------------------------------------------------------------------

TEST_P(DomainProperty, SiliconAndOperationScaleWithVolumeDesignDoesNot) {
  const workload::Schedule small = core::paper_schedule(GetParam(), 3, 2.0 * years, 1e5);
  const workload::Schedule large = core::paper_schedule(GetParam(), 3, 2.0 * years, 5e5);
  for (const device::ChipSpec* chip : {&testcase_.asic, &testcase_.fpga}) {
    const auto at_small = model_.evaluate(*chip, small).total;
    const auto at_large = model_.evaluate(*chip, large).total;
    EXPECT_LT(relative_difference(at_large.manufacturing.canonical(),
                                  5.0 * at_small.manufacturing.canonical()),
              1e-6)
        << chip->name;
    EXPECT_LT(relative_difference(at_large.operational.canonical(),
                                  5.0 * at_small.operational.canonical()),
              1e-6);
    EXPECT_DOUBLE_EQ(at_large.design.canonical(), at_small.design.canonical())
        << "design CFP is volume-independent";
  }
}

TEST_P(DomainProperty, OperationalLinearInLifetime) {
  const auto once = model_.evaluate(testcase_.fpga,
                                    core::paper_schedule(GetParam(), 4, 1.0 * years, 1e6));
  const auto twice = model_.evaluate(testcase_.fpga,
                                     core::paper_schedule(GetParam(), 4, 2.0 * years, 1e6));
  EXPECT_LT(relative_difference(twice.total.operational.canonical(),
                                2.0 * once.total.operational.canonical()),
            1e-9);
  // Embodied carbon does not change with lifetime.
  EXPECT_DOUBLE_EQ(twice.total.embodied().canonical(), once.total.embodied().canonical());
}

TEST_P(DomainProperty, TotalsMonotoneInEveryLoad) {
  // More applications never reduce either platform's total.
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, GetParam());
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 6, 6)};
  const scenario::SweepSeries by_apps = scenario::Engine().run(spec).sweep_series();
  for (std::size_t i = 1; i < by_apps.x.size(); ++i) {
    EXPECT_GT(by_apps.asic[i].total(), by_apps.asic[i - 1].total());
    EXPECT_GT(by_apps.fpga[i].total(), by_apps.fpga[i - 1].total());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainProperty,
                         ::testing::Values(Domain::dnn, Domain::imgproc, Domain::crypto));

// ---------------------------------------------------------------------------
// Invariances and knob directions.
// ---------------------------------------------------------------------------

TEST(KnobProperty, DutyCycleOnlyTouchesOperational) {
  ModelSuite busy = core::paper_suite();
  busy.operation.duty_cycle = 0.4;
  const auto schedule = core::paper_schedule(Domain::dnn);
  const auto testcase = device::domain_testcase(Domain::dnn);
  const auto base = LifecycleModel(core::paper_suite()).evaluate_fpga(testcase.fpga, schedule);
  const auto loaded = LifecycleModel(busy).evaluate_fpga(testcase.fpga, schedule);
  EXPECT_DOUBLE_EQ(loaded.total.embodied().canonical(), base.total.embodied().canonical());
  EXPECT_DOUBLE_EQ(loaded.total.app_dev.canonical(), base.total.app_dev.canonical());
  // 0.4 / 0.02 = 20x operational carbon.
  EXPECT_LT(relative_difference(loaded.total.operational.canonical(),
                                20.0 * base.total.operational.canonical()),
            1e-9);
}

TEST(KnobProperty, UseIntensityScalesOperationalLinearly) {
  const auto schedule = core::paper_schedule(Domain::crypto);
  const auto testcase = device::domain_testcase(Domain::crypto);
  ModelSuite greener = core::paper_suite();
  greener.operation.use_intensity = greener.operation.use_intensity * 0.5;
  const auto base =
      LifecycleModel(core::paper_suite()).evaluate_asic(testcase.asic, schedule);
  const auto green = LifecycleModel(greener).evaluate_asic(testcase.asic, schedule);
  EXPECT_LT(relative_difference(green.total.operational.canonical(),
                                0.5 * base.total.operational.canonical()),
            1e-9);
}

TEST(KnobProperty, FabIntensityTouchesManufacturingOnly) {
  ModelSuite coal = core::paper_suite();
  coal.fab.fab_energy_intensity = act::source_intensity(act::EnergySource::coal);
  const auto testcase = device::domain_testcase(Domain::dnn);
  const auto base = LifecycleModel(core::paper_suite()).per_chip_embodied(testcase.fpga);
  const auto dirty = LifecycleModel(coal).per_chip_embodied(testcase.fpga);
  EXPECT_GT(dirty.manufacturing, base.manufacturing);
  EXPECT_DOUBLE_EQ(dirty.packaging.canonical(), base.packaging.canonical());
  EXPECT_DOUBLE_EQ(dirty.eol.canonical(), base.eol.canonical());
}

TEST(KnobProperty, RecycledSourcingNeverHurtsEitherPlatform) {
  const auto schedule = core::paper_schedule(Domain::imgproc);
  const auto testcase = device::domain_testcase(Domain::imgproc);
  double previous_asic = std::numeric_limits<double>::infinity();
  double previous_fpga = std::numeric_limits<double>::infinity();
  for (const double rho : {0.0, 0.5, 1.0}) {
    ModelSuite suite = core::paper_suite();
    suite.fab.recycled_material_fraction = rho;
    const auto comparison = core::compare(LifecycleModel(suite), testcase, schedule);
    EXPECT_LT(comparison.asic.total.total().canonical(), previous_asic);
    EXPECT_LT(comparison.fpga.total.total().canonical(), previous_fpga);
    previous_asic = comparison.asic.total.total().canonical();
    previous_fpga = comparison.fpga.total.total().canonical();
  }
}

TEST(KnobProperty, CryptoVerdictRobustAcrossYieldModels) {
  // With identical silicon, no yield model can make the crypto FPGA lose.
  for (const tech::YieldModel yield_model :
       {tech::YieldModel::poisson, tech::YieldModel::murphy, tech::YieldModel::seeds,
        tech::YieldModel::negative_binomial}) {
    ModelSuite suite = core::paper_suite();
    suite.fab.yield.model = yield_model;
    const auto comparison =
        core::compare(LifecycleModel(suite), device::domain_testcase(Domain::crypto),
                      core::paper_schedule(Domain::crypto));
    EXPECT_LT(comparison.ratio(), 1.0) << to_string(yield_model);
  }
}

TEST(KnobProperty, FpgaNeverBeatsAsicOnSingleEternalApplication) {
  // One application, long lifetime: reconfigurability buys nothing, the
  // FPGA pays more silicon and more power -- the ASIC must win in every
  // domain with asymmetric ratios.
  const LifecycleModel model{core::paper_suite()};
  for (const Domain domain : {Domain::dnn, Domain::imgproc}) {
    const auto comparison =
        core::compare(model, device::domain_testcase(domain),
                      core::paper_schedule(domain, 1, 8.0 * years, 1e6));
    EXPECT_GT(comparison.ratio(), 1.0) << to_string(domain);
  }
}

// ---------------------------------------------------------------------------
// N_FPGA (multi-chip) laws.
// ---------------------------------------------------------------------------

class MultiChipProperty : public ::testing::TestWithParam<int> {};

TEST_P(MultiChipProperty, FpgaCountScalesSiliconAndPower) {
  const int n_fpga = GetParam();
  const LifecycleModel model{core::paper_suite()};
  const device::ChipSpec fpga = device::industry_fpga1();

  workload::Application app;
  app.name = "scaled-app";
  app.lifetime = 2.0 * years;
  app.volume = 1e4;
  app.size_gates = fpga.capacity_gates * (static_cast<double>(n_fpga) - 0.5);
  const auto result = model.evaluate_fpga(fpga, {app});

  ASSERT_EQ(result.per_application[0].chips_per_unit, n_fpga);
  EXPECT_DOUBLE_EQ(result.chips_manufactured, 1e4 * n_fpga);

  // Against a single-chip deployment, silicon and operation scale by
  // exactly N_FPGA.
  workload::Application single = app;
  single.size_gates = fpga.capacity_gates * 0.5;
  const auto baseline = model.evaluate_fpga(fpga, {single});
  EXPECT_LT(relative_difference(result.total.manufacturing.canonical(),
                                n_fpga * baseline.total.manufacturing.canonical()),
            1e-9);
  EXPECT_LT(relative_difference(result.total.operational.canonical(),
                                n_fpga * baseline.total.operational.canonical()),
            1e-9);
  // Design carbon does not scale: it is the same FPGA product.
  EXPECT_DOUBLE_EQ(result.total.design.canonical(), baseline.total.design.canonical());
}

INSTANTIATE_TEST_SUITE_P(Counts, MultiChipProperty, ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Comparator symmetry.
// ---------------------------------------------------------------------------

TEST(ComparatorProperty, RatioInvertsWhenPlatformsAreMirrored) {
  // Evaluating (asic, fpga) and reading the ratio must equal 1 / ratio of
  // the totals read the other way around.
  const LifecycleModel model{core::paper_suite()};
  const auto testcase = device::domain_testcase(Domain::dnn);
  const auto schedule = core::paper_schedule(Domain::dnn);
  const auto comparison = core::compare(model, testcase, schedule);
  const double forward = comparison.ratio();
  const double backward = comparison.asic.total.total().canonical() /
                          comparison.fpga.total.total().canonical();
  EXPECT_LT(relative_difference(forward, 1.0 / backward), kTolerance);
}

}  // namespace
}  // namespace greenfpga
