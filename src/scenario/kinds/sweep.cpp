/// \file sweep.cpp
/// The sweep kind: 1-D sweep over one axis (paper Figs. 4-6).  Points
/// serialize through the compare module's shared "points" section.

#include <utility>

#include "report/figure_writer.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using report::ResultFrame;

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  points_execute(context, suite, result);
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  ResultFrame frame = points_frame(result, "sweep");
  if (result.platform_index(device::ChipKind::asic) &&
      result.platform_index(device::ChipKind::fpga) &&
      result.platform_names.size() == 2) {
    frame.set_meta("crossovers", report::crossover_summary(result.sweep_series()));
  }
  frames.push_back(std::move(frame));
}

}  // namespace

const KindModule& sweep_module() {
  static const KindModule module{
      .kind = ScenarioKind::sweep,
      .name = "sweep",
      .summary = "1-D sweep over one axis (paper Figs. 4-6)",
      .expected_axes = 1,
      .execute = execute,
      .to_frames = to_frames,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
