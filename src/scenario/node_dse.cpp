/// \file node_dse.cpp
/// Per-node device re-derivation and lifecycle-CFP ranking.

#include "scenario/node_dse.hpp"

#include <algorithm>
#include <stdexcept>

#include "units/units.hpp"

namespace greenfpga::scenario {

device::ChipSpec retarget_to_node(const device::ChipSpec& chip, tech::ProcessNode node) {
  chip.validate();
  const tech::TechnologyNode& from = tech::node_info(chip.node);
  const tech::TechnologyNode& to = tech::node_info(node);

  device::ChipSpec result = chip;
  result.name = chip.name + "@" + tech::to_string(node);
  result.node = node;
  // Same design, different density: area scales inversely with density.
  const double density_ratio =
      from.transistor_density_mtr_per_mm2 / to.transistor_density_mtr_per_mm2;
  result.die_area = chip.die_area * density_ratio;
  // Iso-design power follows the per-node CV^2f factor.
  result.peak_power =
      chip.peak_power * (to.power_scale_vs_10nm / from.power_scale_vs_10nm);
  // Capacity (the design's logic) is unchanged.
  result.capacity_gates = chip.capacity_gates;

  if (result.die_area.in(units::unit::mm2) > kReticleLimitMm2) {
    throw std::invalid_argument("retarget_to_node: '" + result.name + "' needs " +
                                std::to_string(result.die_area.in(units::unit::mm2)) +
                                " mm^2, beyond the reticle limit");
  }
  return result;
}

NodeCandidate evaluate_node_candidate(const core::LifecycleModel& model,
                                      const workload::Schedule& schedule,
                                      const device::ChipSpec& retargeted) {
  NodeCandidate candidate;
  candidate.chip = retargeted;
  candidate.lifecycle = model.evaluate(retargeted, schedule).total;
  return candidate;
}

void rank_node_candidates(std::vector<NodeCandidate>& candidates) {
  if (candidates.empty()) {
    throw std::invalid_argument("node_dse: no candidate node can manufacture this design");
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const NodeCandidate& a, const NodeCandidate& b) {
              return a.total() < b.total();
            });
  const double best = candidates.front().total().canonical();
  for (NodeCandidate& candidate : candidates) {
    candidate.total_vs_best = candidate.total().canonical() / best;
  }
}

}  // namespace greenfpga::scenario
