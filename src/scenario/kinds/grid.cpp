/// \file grid.cpp
/// The grid kind: 2-D grid over two axes (paper Fig. 8 heat-maps).
/// Points serialize through the compare module's shared "points" section;
/// the classic ASIC/FPGA pair renders as the shaded ratio heat-map.

#include <ostream>
#include <utility>

#include "report/ascii_chart.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"
#include "units/format.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using report::ResultFrame;

constexpr std::string_view kAliases[] = {"heatmap"};

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  points_execute(context, suite, result);
}

/// The classic ASIC/FPGA pair, for which the 2-D ratio renderings exist.
bool classic_pair(const ScenarioResult& result) {
  return result.platform_names.size() == 2 &&
         result.platform_index(device::ChipKind::asic) &&
         result.platform_index(device::ChipKind::fpga);
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  ResultFrame frame = points_frame(result, "grid");
  if (result.platform_index(device::ChipKind::asic) &&
      result.platform_index(device::ChipKind::fpga) &&
      result.platform_names.size() == 2) {
    const Heatmap map = result.heatmap();
    std::string range = "[";
    range += units::format_significant(map.min_ratio(), 4);
    range += ", ";
    range += units::format_significant(map.max_ratio(), 4);
    range += "]";
    frame.set_meta("ratio range", range);
    frame.set_meta("unity-contour points", std::to_string(map.unity_contour().size()));
  }
  frames.push_back(std::move(frame));
}

bool render_text(const ScenarioResult& result, std::span<const ResultFrame> frames,
                 std::ostream& out) {
  // The classic ASIC/FPGA pair reads better as the shaded ratio grid
  // than as a point-per-row table; other platform sets have no 2-D
  // ratio rendering, so they print the frame.
  if (!classic_pair(result)) {
    return false;
  }
  out << report::render_heatmap(result.heatmap());
  for (const auto& [key, value] : frames.front().metadata) {
    out << key << ": " << value << "\n";
  }
  return true;
}

}  // namespace

const KindModule& grid_module() {
  static const KindModule module{
      .kind = ScenarioKind::grid,
      .name = "grid",
      .aliases = kAliases,
      .summary = "2-D grid over two axes (paper Fig. 8 heat-maps)",
      .expected_axes = 2,
      .execute = execute,
      .to_frames = to_frames,
      .render_text = render_text,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
