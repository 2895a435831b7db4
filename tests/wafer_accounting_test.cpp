/// Tests for the wafer-based manufacturing accounting extension.

#include <gtest/gtest.h>

#include "act/fab_model.hpp"
#include "tech/yield.hpp"
#include "units/units.hpp"

namespace greenfpga::act {
namespace {

using namespace units::unit;
using tech::ProcessNode;

TEST(WaferAccounting, ChargesMoreThanPerAreaRule) {
  // Edge losses mean the wafer rule always charges at least the per-area
  // rule for the same die.
  const FabModel model;
  for (const double area_mm2 : {25.0, 100.0, 400.0, 800.0}) {
    const auto per_area = model.manufacture_die(ProcessNode::n7, area_mm2 * mm2).total();
    const auto per_wafer =
        model.manufacture_die_wafer_based(ProcessNode::n7, area_mm2 * mm2).total();
    EXPECT_GT(per_wafer.canonical(), per_area.canonical()) << area_mm2 << " mm^2";
  }
}

TEST(WaferAccounting, ConvergesForSmallDies) {
  // Tiny dies tile the wafer almost perfectly: the two rules agree within
  // a few percent.
  const FabModel model;
  const units::Area area = 4.0 * mm2;
  const double per_area = model.manufacture_die(ProcessNode::n10, area).total().canonical();
  const double per_wafer =
      model.manufacture_die_wafer_based(ProcessNode::n10, area).total().canonical();
  EXPECT_NEAR(per_wafer / per_area, 1.0, 0.08);
}

TEST(WaferAccounting, EdgePenaltyGrowsWithDieSize) {
  const FabModel model;
  const auto overhead = [&](double area_mm2) {
    const double per_area =
        model.manufacture_die(ProcessNode::n7, area_mm2 * mm2).total().canonical();
    const double per_wafer =
        model.manufacture_die_wafer_based(ProcessNode::n7, area_mm2 * mm2)
            .total()
            .canonical();
    return per_wafer / per_area;
  };
  EXPECT_LT(overhead(25.0), overhead(400.0));
  EXPECT_LT(overhead(400.0), overhead(820.0));
}

TEST(WaferAccounting, ReportsSameYield) {
  const FabModel model;
  const units::Area area = 300.0 * mm2;
  EXPECT_DOUBLE_EQ(model.manufacture_die(ProcessNode::n5, area).yield,
                   model.manufacture_die_wafer_based(ProcessNode::n5, area).yield);
}

TEST(WaferAccounting, ComponentsSumToTotal) {
  const FabModel model;
  const auto result = model.manufacture_die_wafer_based(ProcessNode::n10, 150.0 * mm2);
  EXPECT_DOUBLE_EQ(result.total().canonical(),
                   (result.energy + result.gases + result.materials).canonical());
}

TEST(WaferAccounting, SmallerWafersChargeMore) {
  // 200 mm wafers lose relatively more edge for the same die.
  const FabModel model;
  const units::Area area = 400.0 * mm2;
  const double on_300 =
      model.manufacture_die_wafer_based(ProcessNode::n10, area, 300.0).total().canonical();
  const double on_200 =
      model.manufacture_die_wafer_based(ProcessNode::n10, area, 200.0).total().canonical();
  EXPECT_GT(on_200, on_300);
}

TEST(WaferAccounting, OversizedDieThrows) {
  const FabModel model;
  EXPECT_THROW(model.manufacture_die_wafer_based(ProcessNode::n10, 1e6 * mm2),
               std::invalid_argument);
  EXPECT_THROW(model.manufacture_die_wafer_based(ProcessNode::n10, units::Area{}),
               std::invalid_argument);
}

// Property: across dies and nodes, the wafer rule's overhead stays within
// a sane envelope (0-50 %) -- it models edge loss, not a different fab.
struct WaferCase {
  ProcessNode node;
  double area_mm2;
};

class WaferOverheadProperty : public ::testing::TestWithParam<WaferCase> {};

TEST_P(WaferOverheadProperty, OverheadBounded) {
  const FabModel model;
  const auto [node, area_mm2] = GetParam();
  const double per_area = model.manufacture_die(node, area_mm2 * mm2).total().canonical();
  const double per_wafer =
      model.manufacture_die_wafer_based(node, area_mm2 * mm2).total().canonical();
  const double overhead = per_wafer / per_area;
  EXPECT_GE(overhead, 1.0);
  EXPECT_LE(overhead, 1.50);
}

// The cases live in static storage so the padding after `node` is zero:
// gtest prints the parameter's raw bytes, and CTest names each discovered
// test after them, so stack garbage there would rename the tests per build.
constexpr WaferCase kWaferCases[] = {
    {ProcessNode::n28, 50.0}, {ProcessNode::n14, 150.0}, {ProcessNode::n10, 340.0},
    {ProcessNode::n7, 600.0}, {ProcessNode::n5, 820.0},
};

INSTANTIATE_TEST_SUITE_P(Grid, WaferOverheadProperty, ::testing::ValuesIn(kWaferCases));

}  // namespace
}  // namespace greenfpga::act
