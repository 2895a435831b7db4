/// \file timeline.cpp
/// The timeline kind: cumulative multi-decade replay (paper Fig. 9).

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"
#include "units/format.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kSpecKeys[] = {"timeline"};

/// Most samples one timeline may hold: the per-axis `count` ceiling.
constexpr double kMaxSamples = 1'000'000;
constexpr std::string_view kResultKeys[] = {"timeline"};

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  out.key("timeline");
  out.begin_object();
  out.number("horizon_years", spec.timeline.horizon_years);
  out.number("step_years", spec.timeline.step_years);
  out.end_object();
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("timeline")) {
    return;
  }
  core::check_known_keys(json.at("timeline"), "timeline",
                         {"horizon_years", "step_years"});
  spec.timeline.horizon_years =
      json.at("timeline").number_or("horizon_years", spec.timeline.horizon_years);
  spec.timeline.step_years =
      json.at("timeline").number_or("step_years", spec.timeline.step_years);
}

void validate(const ScenarioSpec& spec) {
  require_homogeneous_schedule(spec);
  if (spec.timeline.horizon_years <= 0.0 || spec.timeline.step_years <= 0.0) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name +
                                "': timeline horizon and step must be positive");
  }
  // The series holds horizon / step + 1 samples: a tiny step would
  // overflow the sample count or allocate gigabytes.
  const double samples = spec.timeline.horizon_years / spec.timeline.step_years + 1.0;
  if (!std::isfinite(samples) || samples > kMaxSamples) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec.name + "': timeline horizon_years / step_years + 1 is " +
        units::format_significant(samples, 4) + " samples; at most 1000000 are allowed");
  }
}

void execute(const KindRunContext& /*context*/, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const device::DomainTestcase testcase = testcase_of(result, "timeline");
  const core::LifecycleModel model(suite);
  result.timeline =
      simulate_timeline(model, testcase, result.spec.timeline.horizon_years,
                        result.spec.schedule.lifetime_years, result.spec.schedule.volume,
                        result.spec.timeline.step_years);
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int /*threads*/) {
  if (!result.timeline) {
    return;
  }
  const TimelineSeries& series = *result.timeline;
  out.key("timeline");
  out.begin_object();
  out.numbers("asic_cumulative_kg", series.asic_cumulative_kg);
  out.numbers("fpga_cumulative_kg", series.fpga_cumulative_kg);
  out.numbers("fpga_purchase_years", series.fpga_purchase_years);
  out.numbers("time_years", series.time_years);
  out.end_object();
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (!json.contains("timeline")) {
    return;
  }
  const Json& timeline = json.at("timeline");
  core::check_known_keys(timeline, "result timeline",
                         {"time_years", "asic_cumulative_kg", "fpga_cumulative_kg",
                          "fpga_purchase_years"});
  TimelineSeries series;
  series.time_years = doubles_from_json(timeline.at("time_years"));
  series.asic_cumulative_kg = doubles_from_json(timeline.at("asic_cumulative_kg"));
  series.fpga_cumulative_kg = doubles_from_json(timeline.at("fpga_cumulative_kg"));
  series.fpga_purchase_years = doubles_from_json(timeline.at("fpga_purchase_years"));
  result.timeline = std::move(series);
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  const TimelineSeries& series = *result.timeline;
  ResultFrame frame;
  frame.name = "timeline";
  frame.columns = {Column{.name = "time", .unit = "years", .precision = 4},
                   Column{.name = "ASIC cumulative", .unit = "kg CO2e", .precision = 5},
                   Column{.name = "FPGA cumulative", .unit = "kg CO2e", .precision = 5}};
  for (std::size_t i = 0; i < series.time_years.size(); ++i) {
    frame.add_row({Cell(series.time_years[i]), Cell(series.asic_cumulative_kg[i]),
                   Cell(series.fpga_cumulative_kg[i])});
  }
  frame.set_meta("horizon",
                 units::format_significant(series.time_years.back(), 4) + " years");
  frame.set_meta("FPGA fleet purchases", std::to_string(series.fpga_purchase_years.size()));
  frame.set_meta(
      "final cumulative",
      "ASIC " +
          units::format_significant(series.asic_cumulative_kg.back() / kKgPerTonne, 5) +
          " t CO2e, FPGA " +
          units::format_significant(series.fpga_cumulative_kg.back() / kKgPerTonne, 5) +
          " t CO2e");
  std::string crossovers;
  for (const Crossover& crossover : series.crossovers()) {
    crossovers += (crossovers.empty() ? "" : "; ") + to_string(crossover.kind) + " at " +
                  units::format_significant(crossover.x, 4) + " y";
  }
  frame.set_meta("crossovers", crossovers.empty() ? "none" : crossovers);
  frames.push_back(std::move(frame));
}

bool render_text(const ScenarioResult& /*result*/, std::span<const ResultFrame> frames,
                 std::ostream& out) {
  // The cumulative series runs to hundreds of samples; the human
  // report is its summary lines (CSV/JSON carry the full series).
  for (const auto& [key, value] : frames.front().metadata) {
    out << key << ": " << value << "\n";
  }
  return true;
}

}  // namespace

const KindModule& timeline_module() {
  static const KindModule module{
      .kind = ScenarioKind::timeline,
      .name = "timeline",
      .summary = "cumulative multi-decade replay (paper Fig. 9)",
      .spec_keys = kSpecKeys,
      .write_params = write_params,
      .parse_params = parse_params,
      .validate = validate,
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
      .render_text = render_text,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
