/// \file frontier.cpp
/// The frontier kind: platform win-region DSE over 2-4 deployment axes,
/// with an optional Monte-Carlo win-confidence pass.

#include <array>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kSpecKeys[] = {"frontier"};
constexpr std::string_view kResultKeys[] = {"frontier"};

void seed_defaults(ScenarioSpec& spec) {
  // Frontier default: the paper's two headline deployment axes at a
  // resolution that keeps `greenfpga frontier` on a minimal spec fast.
  spec.frontier.axes = {
      dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1.0, 10.0, 10),
      dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e4, 1e7, 10),
  };
}

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  out.key("frontier");
  core::write_json(out, spec.frontier);
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("frontier")) {
    return;
  }
  spec.frontier = dse::frontier_spec_from_json(json.at("frontier"), "frontier",
                                               std::move(spec.frontier));
}

void validate(const ScenarioSpec& spec) {
  require_homogeneous_schedule(spec);
  try {
    spec.frontier.validate();
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name + "': " + error.what());
  }
  // The frontier confidence pass samples the montecarlo distributions, so
  // it needs them validated exactly like the montecarlo kind.
  if (spec.frontier.confidence_samples > 0) {
    validate_spec_distributions(spec);
  }
}

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  dse::FrontierProblem problem;
  problem.frontier = spec.frontier;
  problem.platform_names = result.platform_names;
  problem.chips = result.resolved_chips;
  problem.suite = suite;
  problem.domain = spec.domain;
  problem.app_count = spec.schedule.app_count;
  problem.lifetime_years = spec.schedule.lifetime_years;
  problem.volume = spec.schedule.volume;
  problem.threads = context.threads;
  problem.retarget = [](const device::ChipSpec& chip, tech::ProcessNode node) {
    return retarget_to_node(chip, node);
  };
  if (spec.frontier.confidence_samples > 0) {
    // Bind each montecarlo distribution to its Table 1 applier by name
    // (spec.validate() has already rejected unknown names), exactly like
    // the montecarlo kind.
    const std::vector<ParameterRange>& known = table1_ranges();
    for (const core::ParamDistribution& distribution : spec.montecarlo.distributions) {
      for (const ParameterRange& range : known) {
        if (range.name == distribution.parameter) {
          problem.sampled.push_back(
              dse::SampledParameter{.distribution = distribution, .apply = range.apply});
          break;
        }
      }
    }
  }
  result.frontier = dse::FrontierSearch(std::move(problem)).run();
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int /*threads*/) {
  if (!result.frontier) {
    return;
  }
  // The payload's spec and platform names are the result's own (the
  // engine builds the problem from them), so only the search output is
  // serialized; the reader reconstructs the rest.
  const dse::FrontierResult& fr = *result.frontier;
  out.key("frontier");
  out.begin_object();
  out.key("axis_values");
  out.begin_array();
  for (const std::vector<double>& values : fr.axis_values) {
    out.numbers(values);
  }
  out.end_array();
  out.key("boundaries");
  out.begin_array();
  for (const dse::FrontierBoundary& boundary : fr.boundaries) {
    out.begin_object();
    out.number("platform_a", boundary.platform_a);
    out.number("platform_b", boundary.platform_b);
    out.key("points");
    out.begin_array();
    for (const std::array<double, 2>& point : boundary.points) {
      out.numbers(point);
    }
    out.end_array();
    out.end_object();
  }
  out.end_array();
  out.key("cells");
  out.begin_array();
  for (const dse::FrontierCell& cell : fr.cells) {
    out.begin_object();
    out.number("confidence", cell.confidence);
    out.numbers("coords", cell.coords);
    out.number("margin", cell.margin);
    out.numbers("objective_kg", cell.objective_kg);
    out.number("winner", cell.winner);
    out.end_object();
  }
  out.end_array();
  out.number("confidence_samples", fr.confidence_samples);
  out.number("infeasible_cells", static_cast<double>(fr.infeasible_cells));
  out.key("slices");
  out.begin_array();
  for (const dse::FrontierSlice& slice : fr.slices) {
    out.begin_object();
    out.number("axis", static_cast<double>(slice.axis));
    out.number("value", slice.value);
    out.numbers("win_fraction", slice.win_fraction);
    out.end_object();
  }
  out.end_array();
  out.key("win_counts");
  out.begin_array();
  for (const std::size_t count : fr.win_counts) {
    out.number(static_cast<double>(count));
  }
  out.end_array();
  out.numbers("win_fraction", fr.win_fraction);
  out.end_object();
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (!json.contains("frontier")) {
    return;
  }
  const Json& frontier = json.at("frontier");
  core::check_known_keys(frontier, "result frontier",
                         {"axis_values", "cells", "win_counts", "win_fraction",
                          "infeasible_cells", "slices", "boundaries",
                          "confidence_samples"});
  dse::FrontierResult fr;
  fr.spec = result.spec.frontier;
  fr.platform_names = result.platform_names;
  for (const Json& values : frontier.at("axis_values").as_array()) {
    fr.axis_values.push_back(doubles_from_json(values));
  }
  for (const Json& entry : frontier.at("cells").as_array()) {
    core::check_known_keys(entry, "result frontier cell",
                           {"coords", "objective_kg", "winner", "margin",
                            "confidence"});
    dse::FrontierCell cell;
    cell.coords = doubles_from_json(entry.at("coords"));
    cell.objective_kg = doubles_from_json(entry.at("objective_kg"));
    cell.winner = static_cast<int>(entry.at("winner").as_int());
    cell.margin = entry.at("margin").as_number_total();
    cell.confidence = entry.at("confidence").as_number_total();
    fr.cells.push_back(std::move(cell));
  }
  for (const Json& count : frontier.at("win_counts").as_array()) {
    fr.win_counts.push_back(static_cast<std::size_t>(count.as_int()));
  }
  fr.win_fraction = doubles_from_json(frontier.at("win_fraction"));
  fr.infeasible_cells =
      static_cast<std::size_t>(frontier.at("infeasible_cells").as_int());
  for (const Json& entry : frontier.at("slices").as_array()) {
    core::check_known_keys(entry, "result frontier slice",
                           {"axis", "value", "win_fraction"});
    dse::FrontierSlice slice;
    slice.axis = static_cast<std::size_t>(entry.at("axis").as_int());
    slice.value = entry.at("value").as_number_total();
    slice.win_fraction = doubles_from_json(entry.at("win_fraction"));
    fr.slices.push_back(std::move(slice));
  }
  for (const Json& entry : frontier.at("boundaries").as_array()) {
    core::check_known_keys(entry, "result frontier boundary",
                           {"platform_a", "platform_b", "points"});
    dse::FrontierBoundary boundary;
    boundary.platform_a = static_cast<int>(entry.at("platform_a").as_int());
    boundary.platform_b = static_cast<int>(entry.at("platform_b").as_int());
    for (const Json& point : entry.at("points").as_array()) {
      const std::vector<double> xy = doubles_from_json(point);
      if (xy.size() != 2) {
        throw std::invalid_argument(
            "result frontier boundary point needs exactly two coordinates");
      }
      boundary.points.push_back({xy[0], xy[1]});
    }
    fr.boundaries.push_back(std::move(boundary));
  }
  fr.confidence_samples =
      static_cast<int>(frontier.at("confidence_samples").as_int());
  result.frontier = std::move(fr);
}

/// One row per frontier cell: coordinates, per-platform objectives, the
/// winner and its margin, plus the Monte-Carlo win confidence.
ResultFrame frontier_cells_frame(const ScenarioResult& result) {
  const dse::FrontierResult& frontier = *result.frontier;
  ResultFrame frame;
  frame.name = "frontier";
  for (const dse::FrontierAxisSpec& axis : frontier.spec.axes) {
    frame.columns.push_back(Column{.name = axis.label(), .unit = "", .precision = 4});
  }
  for (const std::string& platform : result.platform_names) {
    frame.columns.push_back(Column{.name = platform, .unit = "t CO2e", .precision = 5});
  }
  frame.columns.push_back(Column{.name = "winner", .unit = "", .precision = 4});
  frame.columns.push_back(Column{.name = "margin", .unit = "", .precision = 4});
  frame.columns.push_back(Column{.name = "confidence", .unit = "", .precision = 4});
  for (const dse::FrontierCell& cell : frontier.cells) {
    std::vector<Cell> row;
    row.reserve(frame.columns.size());
    for (const double c : cell.coords) {
      row.emplace_back(c);
    }
    for (const double objective : cell.objective_kg) {
      row.emplace_back(objective / kKgPerTonne);
    }
    row.emplace_back(cell.winner >= 0
                         ? result.platform_names[static_cast<std::size_t>(cell.winner)]
                         : std::string("-"));
    row.emplace_back(cell.margin);
    row.emplace_back(cell.confidence);
    frame.add_row(std::move(row));
  }
  frame.set_meta("objective", to_string(frontier.spec.objective));
  if (frontier.confidence_samples > 0) {
    frame.set_meta("confidence",
                   std::to_string(frontier.confidence_samples) + " samples, seed " +
                       std::to_string(frontier.spec.seed));
  }
  return frame;
}

/// One row per platform: its win count and overall win fraction.
ResultFrame frontier_summary_frame(const ScenarioResult& result) {
  const dse::FrontierResult& frontier = *result.frontier;
  ResultFrame frame;
  frame.name = "frontier_summary";
  frame.columns = {Column{.name = "platform", .unit = "", .precision = 4},
                   Column{.name = "cells won", .unit = "", .precision = 6},
                   Column{.name = "win fraction", .unit = "", .precision = 4}};
  for (std::size_t p = 0; p < result.platform_names.size(); ++p) {
    frame.add_row({Cell(result.platform_names[p]),
                   Cell(static_cast<double>(frontier.win_counts[p])),
                   Cell(frontier.win_fraction[p])});
  }
  if (frontier.infeasible_cells > 0) {
    frame.set_meta("infeasible cells", std::to_string(frontier.infeasible_cells));
  }
  return frame;
}

/// One row per breakeven boundary point (2-axis frontiers only).
ResultFrame frontier_boundaries_frame(const ScenarioResult& result) {
  const dse::FrontierResult& frontier = *result.frontier;
  ResultFrame frame;
  frame.name = "frontier_boundaries";
  frame.columns = {Column{.name = "between", .unit = "", .precision = 4},
                   Column{.name = frontier.spec.axes[0].label(), .unit = "",
                          .precision = 5},
                   Column{.name = frontier.spec.axes[1].label(), .unit = "",
                          .precision = 5}};
  for (const dse::FrontierBoundary& boundary : frontier.boundaries) {
    const std::string pair =
        result.platform_names[static_cast<std::size_t>(boundary.platform_a)] + "|" +
        result.platform_names[static_cast<std::size_t>(boundary.platform_b)];
    for (const std::array<double, 2>& point : boundary.points) {
      frame.add_row({Cell(pair), Cell(point[0]), Cell(point[1])});
    }
  }
  return frame;
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  frames.push_back(frontier_cells_frame(result));
  frames.push_back(frontier_summary_frame(result));
  if (!result.frontier->boundaries.empty()) {
    frames.push_back(frontier_boundaries_frame(result));
  }
}

}  // namespace

const KindModule& frontier_module() {
  static const KindModule module{
      .kind = ScenarioKind::frontier,
      .name = "frontier",
      .summary = "platform win-region DSE over 2-4 deployment axes",
      .spec_keys = kSpecKeys,
      .seed_defaults = seed_defaults,
      .write_params = write_params,
      .parse_params = parse_params,
      .validate = validate,
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
