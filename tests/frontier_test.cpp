/// Tests for the frontier DSE subsystem (src/dse/): spec JSON contract,
/// grid materialisation, FrontierSearch winner/margin/boundary rules, the
/// Monte-Carlo confidence pass, and the determinism contract (bit-identical
/// results at any thread count).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "device/platform_registry.hpp"
#include "dse/frontier.hpp"
#include "dse/frontier_spec.hpp"
#include "io/json.hpp"
#include "scenario/engine.hpp"
#include "scenario/node_dse.hpp"
#include "scenario/result_io.hpp"
#include "scenario/sensitivity.hpp"

namespace greenfpga::dse {
namespace {

FrontierSpec small_spec() {
  FrontierSpec spec;
  spec.axes = {FrontierAxisSpec::linear(FrontierVariable::app_count, 1, 4, 4),
               FrontierAxisSpec::log(FrontierVariable::volume, 1e4, 1e6, 3)};
  return spec;
}

FrontierProblem small_problem(int threads = 1) {
  FrontierProblem problem;
  problem.frontier = small_spec();
  const device::PlatformRegistry& registry = device::PlatformRegistry::builtins();
  for (const std::string& name : {"asic", "fpga", "gpu"}) {
    problem.platform_names.push_back(name);
    problem.chips.push_back(registry.resolve(name, device::Domain::dnn));
  }
  problem.suite = core::paper_suite();
  problem.threads = threads;
  return problem;
}

// -- spec JSON contract -------------------------------------------------------

TEST(FrontierSpecJson, RoundTripIsByteIdentical) {
  FrontierSpec spec = small_spec();
  spec.objective = FrontierObjective::embodied;
  spec.confidence_samples = 32;
  spec.seed = 9;
  const io::Json json = frontier_spec_to_json(spec);
  const FrontierSpec parsed = frontier_spec_from_json(json, "frontier");
  EXPECT_EQ(frontier_spec_to_json(parsed).dump(), json.dump());
}

TEST(FrontierSpecJson, NodeAxisRoundTripsAndRejectsNumericKeys) {
  FrontierSpec spec;
  spec.axes = {FrontierAxisSpec::linear(FrontierVariable::volume, 1e4, 1e6, 3),
               FrontierAxisSpec::node_list({tech::ProcessNode::n28,
                                            tech::ProcessNode::n7})};
  const io::Json json = frontier_spec_to_json(spec);
  const FrontierSpec parsed = frontier_spec_from_json(json, "frontier");
  EXPECT_EQ(frontier_spec_to_json(parsed).dump(), json.dump());

  // A node axis carrying numeric-axis keys is a config error.
  io::Json bad = io::parse_json(
      R"({"axes": [{"variable": "node", "from": 1.0}]})");
  EXPECT_THROW((void)frontier_spec_from_json(bad, "frontier"), std::exception);
}

TEST(FrontierSpecJson, UnknownKeysAndBadShapesFail) {
  EXPECT_THROW((void)frontier_spec_from_json(
                   io::parse_json(R"({"bogus": 1})"), "frontier"),
               std::exception);
  // One axis only: validate() wants 2-4.
  FrontierSpec one;
  one.axes = {FrontierAxisSpec::linear(FrontierVariable::volume, 1e4, 1e6, 3)};
  EXPECT_THROW(one.validate(), std::invalid_argument);
  // Duplicate variables.
  FrontierSpec dup;
  dup.axes = {FrontierAxisSpec::linear(FrontierVariable::volume, 1e4, 1e6, 3),
              FrontierAxisSpec::log(FrontierVariable::volume, 1e4, 1e6, 3)};
  EXPECT_THROW(dup.validate(), std::invalid_argument);
}

TEST(FrontierSpecJson, AppCountAxisValuesAreBounded) {
  // Each cell builds lround(value) applications, so every app_count axis
  // value must round into [1, workload::kMaxAppCount]; 4e8 used to ask
  // for 4e8 applications and die of std::bad_alloc.
  const std::vector<FrontierAxisSpec> rejected = {
      FrontierAxisSpec::linear(FrontierVariable::app_count, 1, 4e8, 2),
      FrontierAxisSpec::log(FrontierVariable::app_count, 1, 2e6, 3),
      FrontierAxisSpec::list(FrontierVariable::app_count, {3, 1e300}),
      FrontierAxisSpec::list(FrontierVariable::app_count, {0.49}),
      FrontierAxisSpec::list(FrontierVariable::app_count, {1'000'000.5}),
  };
  FrontierSpec spec = small_spec();
  for (const FrontierAxisSpec& axis : rejected) {
    spec.axes.front() = axis;
    try {
      spec.validate();
      ADD_FAILURE() << "accepted app_count axis ending at " << axis.values().back();
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("axis app_count value"), std::string::npos) << message;
      EXPECT_NE(message.find("rounds outside [1, 1000000]"), std::string::npos) << message;
    }
  }
  spec.axes.front() = FrontierAxisSpec::list(FrontierVariable::app_count, {0.5, 1'000'000});
  EXPECT_NO_THROW(spec.validate());
}

TEST(FrontierSpecAxes, ValuesMaterialiseLikeTheScenarioAxes) {
  const FrontierAxisSpec lin =
      FrontierAxisSpec::linear(FrontierVariable::app_count, 1, 4, 4);
  EXPECT_EQ(lin.values(), (std::vector<double>{1, 2, 3, 4}));
  const FrontierAxisSpec lg = FrontierAxisSpec::log(FrontierVariable::volume, 1e2, 1e4, 3);
  const std::vector<double> logged = lg.values();
  ASSERT_EQ(logged.size(), 3u);
  EXPECT_DOUBLE_EQ(logged.front(), 1e2);
  EXPECT_DOUBLE_EQ(logged.back(), 1e4);  // endpoint snapped exactly
  const FrontierAxisSpec nodes = FrontierAxisSpec::node_list({});
  EXPECT_EQ(nodes.materialised_nodes().size(), tech::all_nodes().size());
  EXPECT_EQ(nodes.values().size(), tech::all_nodes().size());
}

// -- search structure ---------------------------------------------------------

TEST(FrontierSearch, GridShapeWinnersAndWinFractionsAreConsistent) {
  const FrontierResult result = FrontierSearch(small_problem()).run();
  ASSERT_EQ(result.axis_values.size(), 2u);
  EXPECT_EQ(result.cells.size(), 12u);  // 4 x 3
  // Axis 0 is the fastest dimension.
  EXPECT_DOUBLE_EQ(result.cells[0].coords[0], 1.0);
  EXPECT_DOUBLE_EQ(result.cells[1].coords[0], 2.0);
  EXPECT_DOUBLE_EQ(result.cells[0].coords[1], result.cells[1].coords[1]);
  EXPECT_EQ(result.cell_index({1, 2}), 2u * 4u + 1u);

  std::size_t total_wins = 0;
  for (std::size_t p = 0; p < result.platform_names.size(); ++p) {
    total_wins += result.win_counts[p];
    EXPECT_DOUBLE_EQ(result.win_fraction[p],
                     static_cast<double>(result.win_counts[p]) /
                         static_cast<double>(result.cells.size()));
  }
  EXPECT_EQ(total_wins + result.infeasible_cells, result.cells.size());
  for (const FrontierCell& cell : result.cells) {
    ASSERT_EQ(cell.objective_kg.size(), 3u);
    ASSERT_GE(cell.winner, 0);
    // The winner really is the argmin of the finite objectives.
    for (const double objective : cell.objective_kg) {
      EXPECT_LE(cell.objective_kg[static_cast<std::size_t>(cell.winner)], objective);
    }
    EXPECT_GE(cell.margin, 1.0);
    EXPECT_DOUBLE_EQ(cell.confidence, 1.0);  // no confidence pass
  }
}

TEST(FrontierSearch, SlicesCoverEveryAxisValue) {
  const FrontierResult result = FrontierSearch(small_problem()).run();
  ASSERT_EQ(result.slices.size(), 4u + 3u);
  for (const FrontierSlice& slice : result.slices) {
    double total = 0.0;
    for (const double fraction : slice.win_fraction) {
      total += fraction;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);  // all cells feasible here
  }
}

TEST(FrontierSearch, BoundariesSeparateAdjacentCellsWithDifferentWinners) {
  const FrontierResult result = FrontierSearch(small_problem()).run();
  // The paper's DNN deployment space has an asic/fpga breakeven inside
  // this window, so at least one boundary must exist.
  ASSERT_FALSE(result.boundaries.empty());
  for (const FrontierBoundary& boundary : result.boundaries) {
    EXPECT_LT(boundary.platform_a, boundary.platform_b);
    ASSERT_FALSE(boundary.points.empty());
    // Points sorted lexicographically and inside the grid's bounds.
    for (std::size_t i = 1; i < boundary.points.size(); ++i) {
      EXPECT_LE(boundary.points[i - 1], boundary.points[i]);
    }
    for (const std::array<double, 2>& point : boundary.points) {
      EXPECT_GE(point[0], result.axis_values[0].front());
      EXPECT_LE(point[0], result.axis_values[0].back());
      EXPECT_GE(point[1], result.axis_values[1].front());
      EXPECT_LE(point[1], result.axis_values[1].back());
    }
  }
}

TEST(FrontierSearch, ObjectiveSelectsTheComparedMetric) {
  FrontierProblem embodied = small_problem();
  embodied.frontier.objective = FrontierObjective::embodied;
  FrontierProblem operational = small_problem();
  operational.frontier.objective = FrontierObjective::operational;
  const FrontierResult em = FrontierSearch(std::move(embodied)).run();
  const FrontierResult op = FrontierSearch(std::move(operational)).run();
  // Embodied excludes use-phase energy, operational excludes fab: the two
  // orderings cannot produce identical objective tables.
  EXPECT_NE(em.cells.front().objective_kg, op.cells.front().objective_kg);
}

TEST(FrontierSearch, NodeAxisNeedsARetargetHookAndMarksInfeasibleCells) {
  FrontierProblem problem = small_problem();
  problem.frontier.axes = {
      FrontierAxisSpec::linear(FrontierVariable::app_count, 1, 3, 3),
      FrontierAxisSpec::node_list({tech::ProcessNode::n28, tech::ProcessNode::n7})};
  EXPECT_THROW((void)FrontierSearch(problem), std::invalid_argument);

  problem.retarget = [](const device::ChipSpec& chip, tech::ProcessNode node) {
    return scenario::retarget_to_node(chip, node);
  };
  const FrontierResult result = FrontierSearch(std::move(problem)).run();
  EXPECT_EQ(result.cells.size(), 6u);
  for (const FrontierCell& cell : result.cells) {
    EXPECT_GE(cell.winner, 0);  // both nodes feasible for these dies
  }
}

TEST(FrontierSearch, ValidationRejectsBadProblems) {
  FrontierProblem one_platform = small_problem();
  one_platform.platform_names = {"asic"};
  one_platform.chips.resize(1);
  EXPECT_THROW((void)FrontierSearch(std::move(one_platform)), std::invalid_argument);

  FrontierProblem misaligned = small_problem();
  misaligned.chips.pop_back();
  EXPECT_THROW((void)FrontierSearch(std::move(misaligned)), std::invalid_argument);
}

TEST(FrontierKind, OnePlatformIsRefusedWhenTheSpecIsDecoded) {
  // Two or more platforms, or none: the default ASIC/FPGA pair.
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::frontier, device::Domain::dnn);
  spec.platforms = {scenario::PlatformRef{.name = "asic"}};
  EXPECT_THROW((void)scenario::spec_from_json(scenario::spec_to_json(spec)),
               std::invalid_argument);
  spec.platforms.clear();
  EXPECT_NO_THROW((void)scenario::spec_from_json(scenario::spec_to_json(spec)));
}

// -- confidence pass ----------------------------------------------------------

FrontierProblem confidence_problem(int threads) {
  FrontierProblem problem = small_problem(threads);
  problem.frontier.confidence_samples = 16;
  problem.frontier.seed = 5;
  for (const scenario::ParameterRange& range : scenario::table1_ranges()) {
    SampledParameter sampled;
    sampled.distribution = core::ParamDistribution{
        .parameter = range.name, .low = range.low, .high = range.high};
    sampled.apply = range.apply;
    problem.sampled.push_back(std::move(sampled));
  }
  return problem;
}

TEST(FrontierConfidence, FractionsAreInRangeAndSeedDependent) {
  const FrontierResult result = FrontierSearch(confidence_problem(1)).run();
  EXPECT_EQ(result.confidence_samples, 16);
  for (const FrontierCell& cell : result.cells) {
    EXPECT_GE(cell.confidence, 0.0);
    EXPECT_LE(cell.confidence, 1.0);
  }
  FrontierProblem reseeded = confidence_problem(1);
  reseeded.frontier.seed = 6;
  const FrontierResult other = FrontierSearch(std::move(reseeded)).run();
  // Same point estimates, possibly different confidence: at minimum the
  // grids agree on winners.
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    EXPECT_EQ(result.cells[i].winner, other.cells[i].winner);
  }
}

// -- determinism --------------------------------------------------------------

TEST(FrontierDeterminism, BitIdenticalAcrossThreadCounts) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::frontier, device::Domain::dnn);
  spec.name = "frontier determinism pin";
  spec.platforms = {scenario::PlatformRef{.name = "asic"},
                    scenario::PlatformRef{.name = "fpga"},
                    scenario::PlatformRef{.name = "gpu"},
                    scenario::PlatformRef{.name = "cpu"}};
  spec.frontier.confidence_samples = 12;
  const std::string baseline =
      scenario::result_to_json(
          scenario::Engine(scenario::EngineOptions{.threads = 1}).run(spec))
          .dump();
  for (const int threads : {2, 8}) {
    const std::string other =
        scenario::result_to_json(
            scenario::Engine(scenario::EngineOptions{.threads = threads}).run(spec))
            .dump();
    EXPECT_EQ(other, baseline) << threads << " threads";
  }
}

}  // namespace
}  // namespace greenfpga::dse
