/// \file spacing.cpp
/// Linear and logarithmic axis spacing (see spacing.hpp).

#include "core/spacing.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace greenfpga::core {

std::vector<double> linspace(double lo, double hi, int count) {
  if (count < 2) {
    throw std::invalid_argument("linspace: need at least 2 points");
  }
  std::vector<double> out(static_cast<std::size_t>(count));
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (int i = 0; i < count; ++i) {
    out[static_cast<std::size_t>(i)] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;  // avoid accumulated rounding on the endpoint
  return out;
}

std::vector<double> logspace(double lo, double hi, int count) {
  if (lo <= 0.0 || hi <= 0.0) {
    throw std::invalid_argument("logspace: bounds must be positive");
  }
  std::vector<double> out = linspace(std::log10(lo), std::log10(hi), count);
  for (double& v : out) {
    v = std::pow(10.0, v);
  }
  out.back() = hi;
  return out;
}

}  // namespace greenfpga::core
