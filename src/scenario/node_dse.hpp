#ifndef GREENFPGA_SCENARIO_NODE_DSE_HPP
#define GREENFPGA_SCENARIO_NODE_DSE_HPP

/// \file node_dse.hpp
/// Carbon-aware process-node design-space exploration.
///
/// An extension in the spirit of the paper's §5 ("enabling
/// sustainability-minded design decisions") and the carbon-aware DSE line
/// of work it cites [16]: given a device and a deployment schedule, which
/// fabrication node minimises *lifecycle* carbon?
///
/// Advanced nodes cost more embodied carbon *per area* (EUV energy,
/// rising defect densities) but, in the ACT dataset, logic density grows
/// faster than carbon-per-area, so per-gate embodied carbon still falls
/// with scaling -- at iso-design the most advanced node wins on both
/// embodied and operational carbon.  What the exploration surfaces is the
/// *margin* (how much a mature-node fallback costs, and whether the duty
/// cycle makes that margin embodied- or operation-driven) and the
/// *feasibility frontier* (large designs fall off the reticle on trailing
/// nodes).  `retarget_to_node` scales a chip across nodes with documented
/// first-order rules (area by logic density, power by the CV^2f-style
/// per-node factor), and the node_dse kind ranks the candidates.

#include <vector>

#include "core/lifecycle_model.hpp"
#include "device/chip_spec.hpp"
#include "tech/node.hpp"
#include "workload/application.hpp"

namespace greenfpga::scenario {

/// First-order retarget of a chip onto another node: die area scales with
/// the inverse logic-density ratio, peak power with the per-node power
/// factor, capacity is preserved (same design), defectivity follows the
/// target node.  Throws std::invalid_argument if the retargeted die would
/// not be manufacturable (exceeds the reticle, ~858 mm^2).
[[nodiscard]] device::ChipSpec retarget_to_node(const device::ChipSpec& chip,
                                                tech::ProcessNode node);

/// Single-exposure reticle limit used as the manufacturability bound.
inline constexpr double kReticleLimitMm2 = 858.0;

/// One explored candidate.
struct NodeCandidate {
  device::ChipSpec chip;                 ///< the retargeted device
  core::CfpBreakdown lifecycle;          ///< platform total over the schedule
  double total_vs_best = 1.0;            ///< total / best candidate's total

  [[nodiscard]] units::CarbonMass total() const { return lifecycle.total(); }
};

/// Engine primitive: evaluate one (already retargeted) candidate device
/// against a schedule.  `total_vs_best` is left at 1.0; see
/// `rank_node_candidates`.
[[nodiscard]] NodeCandidate evaluate_node_candidate(const core::LifecycleModel& model,
                                                    const workload::Schedule& schedule,
                                                    const device::ChipSpec& retargeted);

/// Engine primitive: sort candidates by ascending lifecycle CFP and fill
/// `total_vs_best`.  Throws std::invalid_argument when `candidates` is
/// empty (no node can manufacture the design).
void rank_node_candidates(std::vector<NodeCandidate>& candidates);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_NODE_DSE_HPP
