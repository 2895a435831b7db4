/// \file compare.cpp
/// The compare kind: one evaluation point, all platforms head-to-head.
/// Also owns the shared "points" result section, which sweep and grid
/// results reuse (the result hooks run for every module on every result).

#include <span>
#include <string>
#include <utility>

#include "core/config_io.hpp"
#include "report/figure_writer.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"
#include "units/format.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kResultKeys[] = {"points"};

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  points_execute(context, suite, result);
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int threads) {
  if (result.points.empty()) {
    return;
  }
  out.key("points");
  out.begin_array();
  // The array is most of a grid's bytes: written in chunks on the pool.
  io::write_elements(out, result.points.size(), threads, result.platform_names.size(),
                     [&result](io::JsonWriter& writer, std::size_t i) {
                       const EvalPoint point = result.points[i];
                       writer.begin_object();
                       writer.numbers("coords", point.coords);
                       writer.key("platforms");
                       writer.begin_array();
                       for (const core::PlatformCfp& platform : point.platforms) {
                         core::write_json(writer, platform);
                       }
                       writer.end_array();
                       writer.end_object();
                     });
  out.end_array();
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (!json.contains("points")) {
    return;
  }
  const Json::Array& entries = json.at("points").as_array();
  if (entries.empty()) {
    return;
  }
  // Every point must have point 0's widths.  Checked before the table is
  // sized, so its arrays never hold more cells than the document does.
  const std::size_t axes = entries.front().at("coords").as_array().size();
  const std::size_t platforms = entries.front().at("platforms").as_array().size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    core::check_known_keys(entries[i], "result point", {"coords", "platforms"});
    if (entries[i].at("coords").as_array().size() != axes ||
        entries[i].at("platforms").as_array().size() != platforms) {
      throw core::ConfigError("result point " + std::to_string(i) + ": expected " +
                              std::to_string(axes) + " coords and " +
                              std::to_string(platforms) + " platforms, like point 0");
    }
  }
  result.points = PointTable(entries.size(), axes, platforms);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Json::Array& coords = entries[i].at("coords").as_array();
    const std::span<double> row_coords = result.points.row_coords(i);
    for (std::size_t a = 0; a < axes; ++a) {
      row_coords[a] = coords[a].as_number_total();
    }
    const Json::Array& cells = entries[i].at("platforms").as_array();
    const std::span<core::PlatformCfp> row_platforms = result.points.row_platforms(i);
    for (std::size_t p = 0; p < platforms; ++p) {
      row_platforms[p] = core::platform_cfp_from_json(cells[p]);
    }
  }
}

/// Breakdown-component frame of a compare result: the shared
/// `report::breakdown_frame` layout (one row per platform, one component
/// column each) plus a baseline-ratio column, so compare and `industry`
/// speak identical column names.
void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  const EvalPoint point = result.points.front();
  std::vector<std::pair<std::string, core::CfpBreakdown>> rows;
  rows.reserve(point.platforms.size());
  for (std::size_t i = 0; i < point.platforms.size(); ++i) {
    rows.emplace_back(result.platform_names[i], point.platforms[i].total);
  }
  ResultFrame frame = report::breakdown_frame("platforms", rows);
  frame.columns.push_back(Column{.name = "vs " + result.platform_names[0], .unit = "",
                                 .precision = 4});
  for (std::size_t i = 0; i < frame.rows.size(); ++i) {
    frame.rows[i].emplace_back(point.ratio(i));
  }
  for (std::size_t i = 1; i < result.platform_names.size(); ++i) {
    frame.set_meta(ratio_label(result, i) + " ratio",
                   units::format_significant(point.ratio(i), 4));
  }
  frames.push_back(std::move(frame));
}

}  // namespace

const KindModule& compare_module() {
  static const KindModule module{
      .kind = ScenarioKind::compare,
      .name = "compare",
      .summary = "one evaluation point, all platforms head-to-head",
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
