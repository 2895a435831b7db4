#ifndef GREENFPGA_SCENARIO_SWEEP_HPP
#define GREENFPGA_SCENARIO_SWEEP_HPP

/// \file sweep.hpp
/// One-dimensional experiment sweeps and crossover detection.
///
/// The paper's core experiments (§4.2 A-C) sweep one of the three scenario
/// variables -- number of applications `N_app`, application lifetime `T_i`,
/// application volume `N_vol` -- holding the other two at the paper
/// defaults, and report where the FPGA and ASIC total-CFP curves cross:
///
///   * A2F crossover: FPGA total drops below ASIC total (FPGA becomes the
///     sustainable choice) as x grows;
///   * F2A crossover: FPGA total rises above ASIC total.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "core/spacing.hpp"
#include "device/catalog.hpp"

namespace greenfpga::scenario {

/// Direction of a CFP-curve crossing (paper §4.2 definitions).
enum class CrossoverKind {
  a2f,  ///< ASIC-to-FPGA: FPGA becomes lower-CFP at this x
  f2a,  ///< FPGA-to-ASIC: FPGA becomes higher-CFP at this x
};

[[nodiscard]] std::string to_string(CrossoverKind kind);

/// A detected crossing, linearly interpolated between sweep samples.
struct Crossover {
  double x = 0.0;
  CrossoverKind kind = CrossoverKind::a2f;
};

/// Result of sweeping one variable.
struct SweepSeries {
  std::string parameter;  ///< "N_app", "T_i [years]", "N_vol [units]"
  device::Domain domain = device::Domain::dnn;
  std::vector<double> x;
  std::vector<core::CfpBreakdown> asic;
  std::vector<core::CfpBreakdown> fpga;

  [[nodiscard]] std::vector<double> asic_totals_kg() const;
  [[nodiscard]] std::vector<double> fpga_totals_kg() const;
  /// FPGA:ASIC total ratio at each sample.
  [[nodiscard]] std::vector<double> ratios() const;
  [[nodiscard]] std::vector<Crossover> crossovers() const;
};

/// Find sign changes of (fpga - asic), interpolating the crossing x.
/// Exact ties at sample points are reported at that x with the direction
/// inferred from the neighbouring samples.
[[nodiscard]] std::vector<Crossover> find_crossovers(std::span<const double> x,
                                                     std::span<const double> asic_totals,
                                                     std::span<const double> fpga_totals);

/// First crossover of the given kind, if any.
[[nodiscard]] std::optional<double> first_crossover(const std::vector<Crossover>& crossovers,
                                                    CrossoverKind kind);

/// Axis spacing (core/spacing.hpp), named here for the sweep callers.
using core::linspace;
using core::logspace;

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_SWEEP_HPP
