/// Integration tests: full pipelines across modules -- config file to
/// verdict, sweep to CSV, cross-model consistency.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/comparator.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "report/figure_writer.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga {
namespace {

using namespace units::unit;
using device::Domain;
using scenario::AxisSpec;
using scenario::ScenarioKind;
using scenario::ScenarioSpec;
using scenario::SweepVariable;

/// A DNN sweep-kind spec over N_app = 1..`to` at T_i = 2 y, N_vol = 1e6.
scenario::SweepSeries dnn_app_sweep(int to) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, Domain::dnn);
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {AxisSpec::linear(SweepVariable::app_count, 1, to, to)};
  return scenario::Engine().run(spec).sweep_series();
}

/// A timeline-kind spec for `domain` with 2-year applications, sampled on
/// the application boundaries.
scenario::TimelineSeries two_year_app_timeline(Domain domain, double horizon_years,
                                               double volume) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::timeline, domain);
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = volume;
  spec.timeline = {.horizon_years = horizon_years, .step_years = 2.0};
  return *scenario::Engine().run(spec).timeline;
}

TEST(Integration, ScenarioFileToVerdict) {
  // Write a compare spec to disk, load it, evaluate it, and check the
  // verdict -- the full CLI `compare` path without the process boundary.
  const device::DomainTestcase testcase = device::domain_testcase(Domain::crypto);
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, Domain::crypto);
  spec.name = "crypto appliance";
  spec.platforms = {{.name = "asic", .chip = testcase.asic},
                    {.name = "fpga", .chip = testcase.fpga}};
  spec.schedule.explicit_schedule = core::paper_schedule(Domain::crypto);
  const std::string path = ::testing::TempDir() + "/gf_integration_scenario.json";
  io::write_json_file(path, scenario::spec_to_json(spec));

  const ScenarioSpec loaded = scenario::load_spec(path);
  const core::Comparison comparison = scenario::Engine().run(loaded).comparison();
  EXPECT_EQ(comparison.verdict(), core::Verdict::fpga_lower);
  // The same verdict straight from the lifecycle model.
  const core::Comparison direct = core::compare(core::LifecycleModel(core::paper_suite()),
                                                testcase, core::paper_schedule(Domain::crypto));
  EXPECT_EQ(comparison.asic.total.total().canonical(),
            direct.asic.total.total().canonical());
  EXPECT_EQ(comparison.fpga.total.total().canonical(),
            direct.fpga.total.total().canonical());
}

TEST(Integration, SweepMatchesPointwiseEvaluation) {
  // The sweep kind must produce exactly what independent single-point
  // evaluations produce.
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(Domain::dnn);
  const scenario::SweepSeries series = dnn_app_sweep(6);
  for (std::size_t i = 0; i < series.x.size(); ++i) {
    const int k = static_cast<int>(series.x[i]);
    const auto direct = core::compare(
        model, testcase, core::paper_schedule(Domain::dnn, k, 2.0 * years, 1e6));
    EXPECT_DOUBLE_EQ(series.asic[i].total().canonical(),
                     direct.asic.total.total().canonical());
    EXPECT_DOUBLE_EQ(series.fpga[i].total().canonical(),
                     direct.fpga.total.total().canonical());
  }
}

TEST(Integration, HeatmapRowsMatchSweeps) {
  // A one-row heat-map over N_app must match the N_app sweep ratios.
  ScenarioSpec grid = ScenarioSpec::make(ScenarioKind::grid, Domain::dnn);
  grid.schedule.volume = 1e6;
  grid.axes = {AxisSpec::list(SweepVariable::app_count, {1, 2, 3, 4, 5}),
               AxisSpec::list(SweepVariable::lifetime_years, {2.0})};
  const scenario::Heatmap map = scenario::Engine().run(grid).heatmap();
  const std::vector<double> ratios = dnn_app_sweep(5).ratios();
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    EXPECT_DOUBLE_EQ(map.ratio[0][i], ratios[i]);
  }
}

TEST(Integration, TimelineConsistentWithLifecycleAtAppBoundaries) {
  // After k whole application lifetimes (within the first fleet's service
  // life), the timeline's cumulative FPGA carbon equals the lifecycle
  // model's Eq. (2) total for a k-application schedule.
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(Domain::dnn);
  const scenario::TimelineSeries series = two_year_app_timeline(Domain::dnn, 10.0, 1e6);

  // Sample at t = 10 y (end of the 5th application, all five app-dev
  // events charged, single fleet purchase).
  const auto fpga_eval =
      model.evaluate_fpga(testcase.fpga, core::paper_schedule(Domain::dnn, 5, 2.0 * years, 1e6));
  EXPECT_NEAR(series.fpga_cumulative_kg.back(), fpga_eval.total.total().canonical(),
              fpga_eval.total.total().canonical() * 1e-9);
}

TEST(Integration, TimelineAsicMatchesEquationOne) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(Domain::imgproc);
  const scenario::TimelineSeries series = two_year_app_timeline(Domain::imgproc, 6.0, 1e5);
  const auto asic_eval = model.evaluate_asic(
      testcase.asic, core::paper_schedule(Domain::imgproc, 3, 2.0 * years, 1e5));
  EXPECT_NEAR(series.asic_cumulative_kg.back(), asic_eval.total.total().canonical(),
              asic_eval.total.total().canonical() * 1e-9);
}

TEST(Integration, FigureCsvRoundTripsThroughParser) {
  // CSV written by the figure writer parses back with consistent totals.
  const scenario::SweepSeries series = dnn_app_sweep(3);
  const std::string dir = ::testing::TempDir() + "/gf_integration_results";
  ASSERT_EQ(setenv("GREENFPGA_RESULTS_DIR", dir.c_str(), 1), 0);
  const std::string path = report::write_results_csv("fig4_dnn.csv", report::sweep_csv(series));
  unsetenv("GREENFPGA_RESULTS_DIR");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("ratio"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, 3);
}

TEST(Integration, IndustryAndPaperSuitesDisagreeOnRegime) {
  // The same DNN testcase is embodied-dominated in the edge suite and
  // operation-dominated in the datacenter suite -- the regime split that
  // reconciles Figs. 4-8 with Figs. 10-11.
  const device::DomainTestcase testcase = device::domain_testcase(Domain::dnn);
  const auto schedule = core::paper_schedule(Domain::dnn);
  const auto edge =
      core::LifecycleModel(core::paper_suite()).evaluate_asic(testcase.asic, schedule);
  const auto datacenter =
      core::LifecycleModel(core::industry_suite()).evaluate_asic(testcase.asic, schedule);
  EXPECT_GT(edge.total.embodied(), edge.total.operational);
  EXPECT_GT(datacenter.total.operational, datacenter.total.embodied());
}

TEST(Integration, MonteCarloBandContainsDeterministicRatio) {
  const device::DomainTestcase testcase = device::domain_testcase(Domain::dnn);
  const auto schedule = core::paper_schedule(Domain::dnn);
  const double deterministic =
      core::compare(core::LifecycleModel(core::paper_suite()), testcase, schedule).ratio();
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sensitivity, Domain::dnn);
  spec.schedule.explicit_schedule = schedule;
  spec.sensitivity.run_tornado = false;
  spec.sensitivity.samples = 96;
  const scenario::MonteCarloResult mc = *scenario::Engine().run(spec).monte_carlo;
  EXPECT_GT(deterministic, mc.p05 * 0.5);
  EXPECT_LT(deterministic, mc.p95 * 2.0);
}

}  // namespace
}  // namespace greenfpga
