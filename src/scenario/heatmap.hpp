#ifndef GREENFPGA_SCENARIO_HEATMAP_HPP
#define GREENFPGA_SCENARIO_HEATMAP_HPP

/// \file heatmap.hpp
/// Pairwise parameter sweeps producing FPGA:ASIC ratio grids (Fig. 8).
///
/// Each heat-map cell holds the FPGA:ASIC total-CFP ratio at one
/// (x, y) parameter combination; the ratio = 1 contour is the crossover
/// front the paper marks with pink dashes.

#include <string>
#include <vector>

#include "device/catalog.hpp"

namespace greenfpga::scenario {

/// A filled ratio grid.  `ratio[iy][ix]` corresponds to (x[ix], y[iy]).
struct Heatmap {
  std::string x_name;
  std::string y_name;
  device::Domain domain = device::Domain::dnn;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::vector<double>> ratio;

  /// Grid cells adjacent to the ratio = 1 contour: for each row iy, the
  /// interpolated x where the ratio crosses 1 (if any crossing exists in
  /// that row).
  struct ContourPoint {
    double x = 0.0;
    double y = 0.0;
  };
  [[nodiscard]] std::vector<ContourPoint> unity_contour() const;

  /// Smallest / largest ratio in the grid (for colour scaling).
  [[nodiscard]] double min_ratio() const;
  [[nodiscard]] double max_ratio() const;
};

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_HEATMAP_HPP
