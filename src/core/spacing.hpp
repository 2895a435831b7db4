#ifndef GREENFPGA_CORE_SPACING_HPP
#define GREENFPGA_CORE_SPACING_HPP

/// \file spacing.hpp
/// Axis spacing shared by the scenario axes and the frontier axes: one
/// copy, so an axis written with the same bounds yields the same doubles
/// in either layer.

#include <vector>

namespace greenfpga::core {

/// `count` linearly spaced values over [lo, hi] (count >= 2).
[[nodiscard]] std::vector<double> linspace(double lo, double hi, int count);
/// `count` log-spaced values over [lo, hi] (lo, hi > 0, count >= 2).
[[nodiscard]] std::vector<double> logspace(double lo, double hi, int count);

}  // namespace greenfpga::core

#endif  // GREENFPGA_CORE_SPACING_HPP
