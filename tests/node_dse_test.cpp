/// Tests for the carbon-aware node-selection DSE kind.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

/// Ranks retargets of `domain`'s FPGA with a node_dse-kind spec at the
/// paper-default schedule; an empty `nodes` list means every node.
std::vector<NodeCandidate> explore(Domain domain,
                                   const core::ModelSuite& suite = core::paper_suite(),
                                   std::vector<tech::ProcessNode> nodes = {}) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::node_dse, domain);
  spec.suite = suite;
  spec.dse.nodes = std::move(nodes);
  return Engine().run(spec).candidates;
}

TEST(Retarget, SameNodeIsIdentity) {
  const device::ChipSpec chip = device::domain_testcase(Domain::dnn).asic;
  const device::ChipSpec same = retarget_to_node(chip, chip.node);
  EXPECT_DOUBLE_EQ(same.die_area.in(mm2), chip.die_area.in(mm2));
  EXPECT_DOUBLE_EQ(same.peak_power.in(w), chip.peak_power.in(w));
  EXPECT_DOUBLE_EQ(same.capacity_gates, chip.capacity_gates);
}

TEST(Retarget, OlderNodeGrowsAreaAndPower) {
  const device::ChipSpec chip = device::domain_testcase(Domain::dnn).asic;  // 10 nm
  const device::ChipSpec old = retarget_to_node(chip, tech::ProcessNode::n28);
  EXPECT_GT(old.die_area, chip.die_area);
  EXPECT_GT(old.peak_power, chip.peak_power);
  // Density ratio 52.5 / 14.4 ~ 3.6x area.
  EXPECT_NEAR(old.die_area.in(mm2) / chip.die_area.in(mm2), 52.5 / 14.4, 1e-9);
  EXPECT_NEAR(old.peak_power.in(w) / chip.peak_power.in(w), 1.90, 1e-9);
}

TEST(Retarget, NewerNodeShrinksAreaAndPower) {
  const device::ChipSpec chip = device::domain_testcase(Domain::dnn).asic;
  const device::ChipSpec scaled = retarget_to_node(chip, tech::ProcessNode::n5);
  EXPECT_LT(scaled.die_area, chip.die_area);
  EXPECT_LT(scaled.peak_power, chip.peak_power);
}

TEST(Retarget, PreservesCapacityAndKind) {
  const device::ChipSpec fpga = device::domain_testcase(Domain::dnn).fpga;
  const device::ChipSpec scaled = retarget_to_node(fpga, tech::ProcessNode::n7);
  EXPECT_DOUBLE_EQ(scaled.capacity_gates, fpga.capacity_gates);
  EXPECT_TRUE(scaled.is_fpga());
  EXPECT_EQ(scaled.node, tech::ProcessNode::n7);
}

TEST(Retarget, ReticleViolationThrows) {
  // The ImgProc iso-FPGA (594 mm^2 at 10 nm) cannot be built at 28 nm
  // (~2165 mm^2 equivalent).
  const device::ChipSpec fpga = device::domain_testcase(Domain::imgproc).fpga;
  EXPECT_THROW(retarget_to_node(fpga, tech::ProcessNode::n28), std::invalid_argument);
  EXPECT_NO_THROW(retarget_to_node(fpga, tech::ProcessNode::n7));
}

TEST(NodeDse, CandidatesSortedAscending) {
  const auto candidates = explore(Domain::dnn);
  ASSERT_GE(candidates.size(), 5u);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].total(), candidates[i].total());
    EXPECT_GE(candidates[i].total_vs_best, candidates[i - 1].total_vs_best);
  }
  EXPECT_DOUBLE_EQ(candidates.front().total_vs_best, 1.0);
}

TEST(NodeDse, SkipsUnmanufacturableNodes) {
  const auto candidates = explore(Domain::imgproc);
  for (const NodeCandidate& candidate : candidates) {
    EXPECT_LE(candidate.chip.die_area.in(mm2), kReticleLimitMm2);
  }
  // The trailing nodes (28/20 nm) cannot hold the ImgProc FPGA.
  EXPECT_LT(candidates.size(), tech::all_nodes().size());
}

TEST(NodeDse, BestMatchesExploreFront) {
  // The ranked front is the minimum-CFP candidate, scored 1.0 vs best.
  const auto all = explore(Domain::dnn);
  const auto best = std::min_element(
      all.begin(), all.end(),
      [](const NodeCandidate& a, const NodeCandidate& b) { return a.total() < b.total(); });
  EXPECT_EQ(best->chip.node, all.front().chip.node);
  EXPECT_DOUBLE_EQ(best->total().canonical(), all.front().total().canonical());
  EXPECT_DOUBLE_EQ(all.front().total_vs_best, 1.0);
}

TEST(NodeDse, MostAdvancedFeasibleNodeWinsAtIsoDesign) {
  // In the ACT dataset, logic density grows faster across nodes than fab
  // carbon-per-area, so per-gate embodied carbon still falls with scaling;
  // at iso-design the most advanced node wins on BOTH embodied and
  // operational carbon, and trailing nodes fall off the reticle.  The
  // DSE's value is quantifying the margins and the feasibility frontier.
  const auto candidates = explore(Domain::dnn);
  EXPECT_EQ(candidates.front().chip.node, tech::ProcessNode::n3);
  // The 600 mm^2 10 nm design cannot be retargeted to 14 nm or older.
  for (const NodeCandidate& candidate : candidates) {
    EXPECT_GE(static_cast<int>(tech::ProcessNode::n10),
              static_cast<int>(candidate.chip.node))
        << tech::to_string(candidate.chip.node);
  }
}

TEST(NodeDse, OperationalShareGrowsInDatacenterRegime) {
  // The regimes rank nodes the same way at iso-design, but WHY a node wins
  // shifts: at 2 % duty the winner's advantage is embodied-dominated, at
  // 50 % duty it is operation-dominated.
  const NodeCandidate edge_best = explore(Domain::dnn, core::paper_suite()).front();
  const NodeCandidate dc_best = explore(Domain::dnn, core::industry_suite()).front();
  const auto op_share = [](const NodeCandidate& candidate) {
    return candidate.lifecycle.operational.canonical() /
           candidate.lifecycle.total().canonical();
  };
  EXPECT_GT(op_share(dc_best), 0.5);
  EXPECT_LT(op_share(edge_best), 0.5);
}

TEST(NodeDse, ExplicitNodeListRespected) {
  const auto candidates = explore(Domain::dnn, core::paper_suite(),
                                  {tech::ProcessNode::n8, tech::ProcessNode::n7});
  EXPECT_EQ(candidates.size(), 2u);
}

TEST(NodeDse, NoFeasibleNodeThrows) {
  // The error names the kind the user ran.
  try {
    (void)explore(Domain::imgproc, core::paper_suite(), {tech::ProcessNode::n28});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "node_dse: no candidate node can manufacture this design");
  }
}

}  // namespace
}  // namespace greenfpga::scenario
