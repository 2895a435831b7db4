/// Tests for the grid kind's pairwise heat-maps (Fig. 8).

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

/// Runs a grid-kind spec over (x, y) with N_app = 5, T_i = 2 y and
/// N_vol = 1e6 for the variable neither axis sweeps.
Heatmap heatmap(AxisSpec x, AxisSpec y, Domain domain = Domain::dnn) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::grid, domain);
  spec.schedule.app_count = 5;
  spec.schedule.lifetime_years = 2.0;
  spec.schedule.volume = 1e6;
  spec.axes = {std::move(x), std::move(y)};
  return Engine().run(spec).heatmap();
}

AxisSpec apps_axis(std::vector<double> apps) {
  return AxisSpec::list(SweepVariable::app_count, std::move(apps));
}
AxisSpec lifetime_axis(std::vector<double> lifetimes) {
  return AxisSpec::list(SweepVariable::lifetime_years, std::move(lifetimes));
}
AxisSpec volume_axis(std::vector<double> volumes) {
  return AxisSpec::list(SweepVariable::volume, std::move(volumes));
}

TEST(Heatmap, AppCountVsLifetimeShape) {
  const std::vector<double> apps{1, 3, 5, 7};
  const std::vector<double> lifetimes{0.5, 1.0, 2.0};
  const Heatmap map = heatmap(apps_axis(apps), lifetime_axis(lifetimes));
  EXPECT_EQ(map.x_name, "N_app");
  EXPECT_EQ(map.y_name, "T_i [years]");
  ASSERT_EQ(map.ratio.size(), lifetimes.size());
  ASSERT_EQ(map.ratio[0].size(), apps.size());
  // Ratio falls along x (more apps help the FPGA) in every row.
  for (const auto& row : map.ratio) {
    for (std::size_t i = 1; i < row.size(); ++i) {
      EXPECT_LT(row[i], row[i - 1]);
    }
  }
}

TEST(Heatmap, RatioRisesWithLifetime) {
  const std::vector<double> apps{5};
  const std::vector<double> lifetimes{0.5, 1.0, 1.5, 2.0, 2.5};
  const Heatmap map = heatmap(apps_axis(apps), lifetime_axis(lifetimes));
  for (std::size_t iy = 1; iy < lifetimes.size(); ++iy) {
    EXPECT_GT(map.ratio[iy][0], map.ratio[iy - 1][0])
        << "longer lifetimes favour the ASIC (Fig. 5 direction)";
  }
}

TEST(Heatmap, VolumeVsLifetimeShape) {
  const std::vector<double> volumes{1e4, 1e5, 1e6};
  const std::vector<double> lifetimes{1.0, 2.0};
  const Heatmap map = heatmap(volume_axis(volumes), lifetime_axis(lifetimes));
  ASSERT_EQ(map.ratio.size(), 2u);
  ASSERT_EQ(map.ratio[0].size(), 3u);
  EXPECT_EQ(map.x_name, "N_vol [units]");
}

TEST(Heatmap, VolumeVsAppCountShape) {
  const std::vector<double> volumes{1e4, 1e6};
  const std::vector<double> apps{1, 5};
  const Heatmap map = heatmap(volume_axis(volumes), apps_axis(apps));
  ASSERT_EQ(map.ratio.size(), 2u);
  // More applications help the FPGA at any volume.
  EXPECT_LT(map.ratio[1][0], map.ratio[0][0]);
  EXPECT_LT(map.ratio[1][1], map.ratio[0][1]);
}

TEST(Heatmap, UnityContourFoundWhereCurvesCross) {
  // Along N_app at T = 2 y, V = 1e6 the DNN testcase crosses near 5-6
  // (Fig. 4), so the contour must contain a point at that row.
  const std::vector<double> apps{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> lifetimes{2.0};
  const Heatmap map = heatmap(apps_axis(apps), lifetime_axis(lifetimes));
  const auto contour = map.unity_contour();
  ASSERT_FALSE(contour.empty());
  EXPECT_GT(contour[0].x, 4.0);
  EXPECT_LT(contour[0].x, 7.0);
  EXPECT_DOUBLE_EQ(contour[0].y, 2.0);
}

TEST(Heatmap, ContourEmptyWhenOneSideDominates) {
  // Crypto: FPGA greener everywhere -> no unity contour.
  const Heatmap map =
      heatmap(apps_axis({1, 3, 5}), lifetime_axis({1.0, 2.0}), Domain::crypto);
  EXPECT_TRUE(map.unity_contour().empty());
  EXPECT_LT(map.max_ratio(), 1.0);
}

TEST(Heatmap, MinMaxRatioBracketGrid) {
  const std::vector<double> apps{1, 8};
  const std::vector<double> lifetimes{0.5, 2.5};
  const Heatmap map = heatmap(apps_axis(apps), lifetime_axis(lifetimes));
  EXPECT_LE(map.min_ratio(), map.max_ratio());
  for (const auto& row : map.ratio) {
    for (const double r : row) {
      EXPECT_GE(r, map.min_ratio());
      EXPECT_LE(r, map.max_ratio());
    }
  }
}

TEST(Heatmap, EmptyAxesThrow) {
  EXPECT_THROW(heatmap(apps_axis({}), lifetime_axis({1.0})), std::invalid_argument);
}

TEST(Heatmap, HighVolumeManyAppsStillFpga) {
  // Paper Fig. 8 reading: at ~9 M volume FPGAs can be sustainable if
  // N_app > 6... checked here as ratio decreasing in k at high volume.
  const std::vector<double> volumes{9e6};
  const std::vector<double> apps{2, 6, 10, 14};
  const Heatmap map = heatmap(volume_axis(volumes), apps_axis(apps));
  for (std::size_t iy = 1; iy < apps.size(); ++iy) {
    EXPECT_LT(map.ratio[iy][0], map.ratio[iy - 1][0]);
  }
}

}  // namespace
}  // namespace greenfpga::scenario
