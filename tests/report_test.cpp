/// Tests for report rendering: tables, ASCII charts, CSV figure output.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "report/markdown_report.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::report {
namespace {

using namespace units::unit;
using device::Domain;

/// A sweep-kind spec over N_app = 1..`to` at T_i = 2 y, N_vol = 1e6.
scenario::SweepSeries app_sweep(Domain domain, int to) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, domain);
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {
      scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, to, to)};
  return scenario::Engine().run(spec).sweep_series();
}

scenario::SweepSeries small_dnn_sweep() { return app_sweep(Domain::dnn, 4); }

TEST(SweepTable, HasHeaderAndAllRows) {
  const std::string table = sweep_table(small_dnn_sweep());
  EXPECT_NE(table.find("N_app"), std::string::npos);
  EXPECT_NE(table.find("FPGA:ASIC"), std::string::npos);
  EXPECT_NE(table.find("greener"), std::string::npos);
  // 4 sweep points -> at least 4 data rows.
  EXPECT_GE(std::count(table.begin(), table.end(), '\n'), 8);
}

TEST(CrossoverSummary, ReportsCrossoverWithValue) {
  const auto series = app_sweep(Domain::dnn, 8);
  const std::string summary = crossover_summary(series);
  EXPECT_NE(summary.find("A2F"), std::string::npos);
  EXPECT_NE(summary.find("N_app"), std::string::npos);
}

TEST(CrossoverSummary, ReportsDominanceWhenNoCrossover) {
  const auto series = app_sweep(Domain::crypto, 4);
  const std::string summary = crossover_summary(series);
  EXPECT_NE(summary.find("no crossover"), std::string::npos);
  EXPECT_NE(summary.find("FPGA greener throughout"), std::string::npos);
}

TEST(BreakdownTable, ListsComponentsAndTotals) {
  core::CfpBreakdown breakdown;
  breakdown.design = 1.0 * t_co2e;
  breakdown.manufacturing = 2.0 * t_co2e;
  breakdown.operational = 3.0 * t_co2e;
  const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
      {"FPGA", breakdown}};
  const std::string table = breakdown_table(platforms);
  EXPECT_NE(table.find("design"), std::string::npos);
  EXPECT_NE(table.find("manufacturing"), std::string::npos);
  EXPECT_NE(table.find("end-of-life"), std::string::npos);
  EXPECT_NE(table.find("embodied (EC)"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_NE(table.find("6"), std::string::npos);  // total = 6 t
}

TEST(SweepCsv, HeaderAndRowsAligned) {
  const io::CsvWriter csv = sweep_csv(small_dnn_sweep());
  const std::string text = csv.render();
  EXPECT_NE(text.find("asic_total_kg"), std::string::npos);
  EXPECT_NE(text.find("ratio"), std::string::npos);
  // 1 header + 4 data rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

TEST(TimelineCsv, MatchesSeriesLength) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::timeline, Domain::dnn);
  spec.schedule.lifetime_years = 1.0;
  spec.timeline = {.horizon_years = 5.0, .step_years = 1.0};
  const scenario::TimelineSeries series = *scenario::Engine().run(spec).timeline;
  const std::string text = timeline_csv(series).render();
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            series.time_years.size() + 1);
}

TEST(ResultsDir, RespectsEnvironmentOverride) {
  const std::string dir = ::testing::TempDir() + "/gf_results_env";
  ASSERT_EQ(setenv("GREENFPGA_RESULTS_DIR", dir.c_str(), 1), 0);
  EXPECT_EQ(results_dir(), dir);
  io::CsvWriter csv;
  csv.add_row({"a", "b"});
  const std::string path = write_results_csv("test.csv", csv);
  EXPECT_TRUE(std::filesystem::exists(path));
  unsetenv("GREENFPGA_RESULTS_DIR");
  EXPECT_EQ(results_dir(), "results");
}

TEST(LineChart, MarksAllSeries) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<ChartSeries> series{
      {"asic", 'a', {1.0, 2.0, 3.0, 4.0}},
      {"fpga", 'f', {4.0, 3.0, 2.0, 1.0}},
  };
  const std::string chart = render_line_chart(x, series, 40, 10);
  EXPECT_NE(chart.find('a'), std::string::npos);
  EXPECT_NE(chart.find('f'), std::string::npos);
  EXPECT_NE(chart.find("asic"), std::string::npos);
  EXPECT_NE(chart.find("fpga"), std::string::npos);
}

TEST(LineChart, LogScaleRequiresPositiveX) {
  const std::vector<double> x{0.0, 1.0};
  const std::vector<ChartSeries> series{{"s", '*', {1.0, 2.0}}};
  EXPECT_THROW(render_line_chart(x, series, 40, 10, /*log_x=*/true),
               std::invalid_argument);
}

TEST(LineChart, ValidatesInput) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<ChartSeries> mismatched{{"s", '*', {1.0}}};
  EXPECT_THROW(render_line_chart(x, mismatched), std::invalid_argument);
  const std::vector<ChartSeries> ok{{"s", '*', {1.0, 2.0}}};
  EXPECT_THROW(render_line_chart(x, ok, 4, 2), std::invalid_argument);
  EXPECT_THROW(render_line_chart({}, ok), std::invalid_argument);
}

TEST(LineChart, FlatSeriesRenderable) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<ChartSeries> flat{{"s", '*', {5.0, 5.0}}};
  EXPECT_NO_THROW(render_line_chart(x, flat));
}

TEST(HeatmapRender, MarksCrossoverCells) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::grid, Domain::dnn);
  spec.schedule.volume = 1e6;
  spec.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 8, 8),
               scenario::AxisSpec::list(scenario::SweepVariable::lifetime_years, {1.0, 2.0})};
  const scenario::Heatmap map = scenario::Engine().run(spec).heatmap();
  const std::string rendered = render_heatmap(map);
  EXPECT_NE(rendered.find("FPGA:ASIC"), std::string::npos);
  EXPECT_NE(rendered.find('X'), std::string::npos) << "unity cells should be marked";
}

TEST(Bars, NegativeValuesRenderLeftward) {
  const std::vector<Bar> bars{{"mfg", 10.0}, {"eol", -2.0}};
  const std::string rendered = render_bars(bars, 20);
  EXPECT_NE(rendered.find('#'), std::string::npos);
  EXPECT_NE(rendered.find('<'), std::string::npos);
  EXPECT_NE(rendered.find("-2"), std::string::npos);
}

TEST(Bars, EmptyThrows) { EXPECT_THROW(render_bars({}), std::invalid_argument); }

/// The compare result of `domain`'s testcase on the paper schedule.
scenario::ScenarioResult compare_result(Domain domain, const std::string& name) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::compare, domain);
  spec.name = name;
  return scenario::Engine().run(spec);
}

TEST(MarkdownReport, RendersAllSections) {
  MarkdownReportInputs inputs;
  inputs.result = compare_result(Domain::crypto, "markdown test");
  const std::string markdown = render_markdown_report(inputs);
  EXPECT_NE(markdown.find("# GreenFPGA sustainability report"), std::string::npos);
  EXPECT_NE(markdown.find("**markdown test**"), std::string::npos);
  EXPECT_NE(markdown.find("## Verdict"), std::string::npos);
  EXPECT_NE(markdown.find("Greener platform: FPGA"), std::string::npos);
  EXPECT_NE(markdown.find("| manufacturing |"), std::string::npos);
  // No uncertainty section without a Monte-Carlo result.
  EXPECT_EQ(markdown.find("## Uncertainty"), std::string::npos);
}

TEST(MarkdownReport, IncludesUncertaintyWhenProvided) {
  MarkdownReportInputs inputs;
  inputs.result = compare_result(Domain::dnn, "uncertainty test");
  scenario::MonteCarloResult mc;
  mc.samples = 64;
  mc.mean = 1.05;
  mc.p05 = 0.9;
  mc.p50 = 1.04;
  mc.p95 = 1.2;
  mc.fpga_win_fraction = 0.4;
  inputs.uncertainty = mc;
  const std::string markdown = render_markdown_report(inputs);
  EXPECT_NE(markdown.find("## Uncertainty"), std::string::npos);
  EXPECT_NE(markdown.find("| samples | 64 |"), std::string::npos);
  EXPECT_NE(markdown.find("| FPGA wins | 40 % |"), std::string::npos);
}

TEST(MarkdownReport, BreakdownTableIsValidMarkdown) {
  core::CfpBreakdown breakdown;
  breakdown.manufacturing = 2.0 * t_co2e;
  const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
      {"X", breakdown}};
  const std::string table = markdown_breakdown_table(platforms);
  EXPECT_NE(table.find("| component [t CO2e] | X |"), std::string::npos);
  EXPECT_NE(table.find("|---|---:|"), std::string::npos);
  EXPECT_NE(table.find("| **total** | **2** |"), std::string::npos);
}

}  // namespace
}  // namespace greenfpga::report
