/// \file markdown_report.cpp
/// Self-contained markdown sustainability reports.

#include "report/markdown_report.hpp"

#include "units/format.hpp"
#include "units/units.hpp"

namespace greenfpga::report {

namespace {

using units::unit::t_co2e;
using units::unit::w;
using units::unit::years;

std::string tonnes(units::CarbonMass mass) {
  return units::format_significant(mass.in(t_co2e), 5);
}

std::string chip_line(const device::ChipSpec& chip) {
  return "`" + chip.name + "` — " + to_string(chip.kind) + ", " +
         tech::to_string(chip.node) + ", " + units::format_area(chip.die_area) + ", " +
         units::format_power(chip.peak_power);
}

}  // namespace

std::string markdown_breakdown_table(
    std::span<const std::pair<std::string, core::CfpBreakdown>> platforms) {
  std::string out = "| component [t CO2e] |";
  for (const auto& [name, breakdown] : platforms) {
    out += " " + name + " |";
  }
  out += "\n|---|";
  for (std::size_t i = 0; i < platforms.size(); ++i) {
    out += "---:|";
  }
  out += "\n";
  const auto component_row = [&](const std::string& label,
                                 units::CarbonMass core::CfpBreakdown::* member) {
    out += "| ";
    out += label;
    out += " |";
    for (const auto& [name, breakdown] : platforms) {
      out += ' ';
      out += tonnes(breakdown.*member);
      out += " |";
    }
    out += "\n";
  };
  component_row("design", &core::CfpBreakdown::design);
  component_row("manufacturing", &core::CfpBreakdown::manufacturing);
  component_row("packaging", &core::CfpBreakdown::packaging);
  component_row("end-of-life", &core::CfpBreakdown::eol);
  component_row("operational", &core::CfpBreakdown::operational);
  component_row("app-dev", &core::CfpBreakdown::app_dev);
  out += "| **total** |";
  for (const auto& [name, breakdown] : platforms) {
    out += " **" + tonnes(breakdown.total()) + "** |";
  }
  out += "\n";
  return out;
}

std::string render_markdown_report(const MarkdownReportInputs& inputs) {
  const scenario::ScenarioResult& result = inputs.result;
  const core::Comparison comparison = result.comparison();
  const auto chip = [&result](device::ChipKind kind) {
    return chip_line(result.resolved_chips[*result.platform_index(kind)]);
  };
  const workload::Schedule schedule = result.spec.schedule.materialise(result.spec.domain);
  std::string out;
  out += "# " + inputs.title + "\n\n";
  out += "Scenario: **" + result.spec.name + "**\n\n";

  // Devices and workload.
  out += "## Scenario\n\n";
  out += "* ASIC platform: " + chip(device::ChipKind::asic) + "\n";
  out += "* FPGA platform: " + chip(device::ChipKind::fpga) + "\n";
  out += "* Schedule: " + std::to_string(schedule.size()) + " application(s)";
  if (!schedule.empty()) {
    const workload::Application& first = schedule.front();
    out += " — e.g. `" + first.name + "`: " + units::format_time(first.lifetime) + " at " +
           units::format_significant(first.volume, 4) + " units";
  }
  out += "\n\n";

  // Verdict.
  const double ratio = comparison.ratio();
  out += "## Verdict\n\n";
  out += "**Greener platform: " + to_string(comparison.verdict()) + "** — FPGA:ASIC total "
         "ratio " +
         units::format_significant(ratio, 4) + " (";
  if (ratio < 1.0) {
    out += "FPGA " + units::format_significant(100.0 * (1.0 - ratio), 3) + " % lower";
  } else {
    out += "FPGA " + units::format_significant(100.0 * (ratio - 1.0), 3) + " % higher";
  }
  out += ").\n\n";

  // Component tables.
  out += "## Lifecycle breakdown\n\n";
  const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
      {"ASIC", comparison.asic.total},
      {"FPGA", comparison.fpga.total},
  };
  out += markdown_breakdown_table(platforms);
  out += "\nChips manufactured: ASIC " +
         units::format_significant(comparison.asic.chips_manufactured, 6) + ", FPGA " +
         units::format_significant(comparison.fpga.chips_manufactured, 6) + ".\n";

  // Uncertainty.
  if (inputs.uncertainty) {
    const scenario::MonteCarloResult& mc = *inputs.uncertainty;
    out += "\n## Uncertainty (Table 1 input ranges)\n\n";
    out += "| metric | value |\n|---|---:|\n";
    out += "| samples | " + std::to_string(mc.samples) + " |\n";
    out += "| ratio mean | " + units::format_significant(mc.mean, 4) + " |\n";
    out += "| ratio p05 | " + units::format_significant(mc.p05, 4) + " |\n";
    out += "| ratio median | " + units::format_significant(mc.p50, 4) + " |\n";
    out += "| ratio p95 | " + units::format_significant(mc.p95, 4) + " |\n";
    out += "| FPGA wins | " +
           units::format_significant(100.0 * mc.fpga_win_fraction, 4) + " % |\n";
  }

  out += "\n---\n*Generated by GreenFPGA (DAC 2024 reproduction).*\n";
  return out;
}

}  // namespace greenfpga::report
