/// \file compare.cpp
/// The compare kind: one evaluation point, all platforms head-to-head.
/// Also owns the shared "points" result section, which sweep and grid
/// results reuse (the result hooks run for every module on every result).

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
                       const EvalPoint& point = result.points[i];
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
  for (const Json& entry : json.at("points").as_array()) {
    core::check_known_keys(entry, "result point", {"coords", "platforms"});
    EvalPoint point;
    point.coords = doubles_from_json(entry.at("coords"));
    for (const Json& platform : entry.at("platforms").as_array()) {
      point.platforms.push_back(core::platform_cfp_from_json(platform));
    }
    result.points.push_back(std::move(point));
  }
}

/// Breakdown-component frame of a compare result: the shared
/// `report::breakdown_frame` layout (one row per platform, one component
/// column each) plus a baseline-ratio column, so compare and `industry`
/// speak identical column names.
void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  const EvalPoint& point = result.points.front();
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
