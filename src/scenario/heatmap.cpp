/// \file heatmap.cpp
/// Ratio-grid contour extraction and colour bounds (Fig. 8).

#include "scenario/heatmap.hpp"

#include <algorithm>

namespace greenfpga::scenario {

std::vector<Heatmap::ContourPoint> Heatmap::unity_contour() const {
  std::vector<ContourPoint> contour;
  for (std::size_t iy = 0; iy < y.size(); ++iy) {
    const std::vector<double>& row = ratio[iy];
    for (std::size_t ix = 1; ix < row.size(); ++ix) {
      const double prev = row[ix - 1] - 1.0;
      const double curr = row[ix] - 1.0;
      if ((prev <= 0.0 && curr > 0.0) || (prev >= 0.0 && curr < 0.0)) {
        const double t = prev / (prev - curr);
        contour.push_back({x[ix - 1] + t * (x[ix] - x[ix - 1]), y[iy]});
      }
    }
  }
  return contour;
}

double Heatmap::min_ratio() const {
  double best = ratio.at(0).at(0);
  for (const auto& row : ratio) {
    best = std::min(best, *std::min_element(row.begin(), row.end()));
  }
  return best;
}

double Heatmap::max_ratio() const {
  double best = ratio.at(0).at(0);
  for (const auto& row : ratio) {
    best = std::max(best, *std::max_element(row.begin(), row.end()));
  }
  return best;
}

}  // namespace greenfpga::scenario
