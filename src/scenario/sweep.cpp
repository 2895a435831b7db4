/// \file sweep.cpp
/// Sweep series views and A2F/F2A crossover detection.

#include "scenario/sweep.hpp"

#include <stdexcept>

namespace greenfpga::scenario {

std::string to_string(CrossoverKind kind) {
  switch (kind) {
    case CrossoverKind::a2f:
      return "A2F";
    case CrossoverKind::f2a:
      return "F2A";
  }
  return "unknown";
}

std::vector<double> SweepSeries::asic_totals_kg() const {
  std::vector<double> out;
  out.reserve(asic.size());
  for (const core::CfpBreakdown& b : asic) {
    out.push_back(b.total().canonical());
  }
  return out;
}

std::vector<double> SweepSeries::fpga_totals_kg() const {
  std::vector<double> out;
  out.reserve(fpga.size());
  for (const core::CfpBreakdown& b : fpga) {
    out.push_back(b.total().canonical());
  }
  return out;
}

std::vector<double> SweepSeries::ratios() const {
  const std::vector<double> a = asic_totals_kg();
  const std::vector<double> f = fpga_totals_kg();
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = f[i] / a[i];
  }
  return out;
}

std::vector<Crossover> SweepSeries::crossovers() const {
  return find_crossovers(x, asic_totals_kg(), fpga_totals_kg());
}

std::vector<Crossover> find_crossovers(std::span<const double> x,
                                       std::span<const double> asic_totals,
                                       std::span<const double> fpga_totals) {
  if (x.size() != asic_totals.size() || x.size() != fpga_totals.size()) {
    throw std::invalid_argument("find_crossovers: series lengths differ");
  }
  std::vector<Crossover> result;
  // Track the sign of the last nonzero difference so that a curve touching
  // zero at a sample point yields exactly one crossover (not one per
  // adjacent interval) and a touch-and-return yields none.
  int last_sign = 0;  // diff > 0: FPGA worse; diff < 0: FPGA better
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double diff = fpga_totals[i] - asic_totals[i];
    const int sign = diff > 0.0 ? 1 : (diff < 0.0 ? -1 : 0);
    if (sign == 0) {
      continue;
    }
    if (last_sign != 0 && sign != last_sign && i > 0) {
      const double prev = fpga_totals[i - 1] - asic_totals[i - 1];
      const double t = prev / (prev - diff);
      const double crossing = x[i - 1] + t * (x[i] - x[i - 1]);
      result.push_back(
          {crossing, sign < 0 ? CrossoverKind::a2f : CrossoverKind::f2a});
    }
    last_sign = sign;
  }
  return result;
}

std::optional<double> first_crossover(const std::vector<Crossover>& crossovers,
                                      CrossoverKind kind) {
  for (const Crossover& crossover : crossovers) {
    if (crossover.kind == kind) {
      return crossover.x;
    }
  }
  return std::nullopt;
}

}  // namespace greenfpga::scenario
