#ifndef GREENFPGA_REPORT_MARKDOWN_REPORT_HPP
#define GREENFPGA_REPORT_MARKDOWN_REPORT_HPP

/// \file markdown_report.hpp
/// Markdown sustainability-report rendering.
///
/// Turns a compare result into a self-contained markdown document
/// (suitable for CI artifacts, PR comments or documentation pipelines):
/// scenario summary, per-platform component tables, verdict, and
/// optionally the Table 1 uncertainty band.  The CLI's
/// `compare --markdown <file>` uses this writer.

#include <optional>
#include <string>

#include "scenario/engine.hpp"

namespace greenfpga::report {

/// Inputs of a rendered report.
struct MarkdownReportInputs {
  std::string title = "GreenFPGA sustainability report";
  /// A compare result with an ASIC and an FPGA platform: the report reads
  /// the scenario name, both chips, the schedule and the totals from it.
  scenario::ScenarioResult result;
  /// Optional Monte-Carlo band over the Table 1 ranges.
  std::optional<scenario::MonteCarloResult> uncertainty;
};

/// Render the full document.
[[nodiscard]] std::string render_markdown_report(const MarkdownReportInputs& inputs);

/// Render one breakdown as a markdown table (also used standalone).
[[nodiscard]] std::string markdown_breakdown_table(
    std::span<const std::pair<std::string, core::CfpBreakdown>> platforms);

}  // namespace greenfpga::report

#endif  // GREENFPGA_REPORT_MARKDOWN_REPORT_HPP
