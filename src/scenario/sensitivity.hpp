#ifndef GREENFPGA_SCENARIO_SENSITIVITY_HPP
#define GREENFPGA_SCENARIO_SENSITIVITY_HPP

/// \file sensitivity.hpp
/// Parameter sensitivity over the paper's Table 1 input ranges.
///
/// The paper stresses (§5) that GreenFPGA's outputs inherit the
/// uncertainty of coarse public inputs and exposes every assumption as a
/// knob.  This module quantifies that: one-at-a-time "tornado" analysis
/// and uniform Monte-Carlo sampling over the Table 1 ranges, reporting how
/// the FPGA:ASIC verdict moves.  (An extension beyond the paper's own
/// evaluation, listed in DESIGN.md as ablation support.)

#include <functional>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "core/lifecycle_model.hpp"
#include "device/catalog.hpp"
#include "workload/application.hpp"

namespace greenfpga::scenario {

/// One tunable input with its Table 1 range and an applier that writes a
/// sampled value into a ModelSuite.
struct ParameterRange {
  std::string name;
  double low = 0.0;
  double high = 1.0;
  std::function<void(core::ModelSuite&, double)> apply;
};

/// The paper's Table 1, as sweepable ranges (built once, on first use).
[[nodiscard]] const std::vector<ParameterRange>& table1_ranges();

/// One-at-a-time sensitivity result for one parameter.
struct TornadoEntry {
  std::string name;
  double ratio_at_low = 0.0;   ///< FPGA:ASIC ratio with the parameter at range-low
  double ratio_at_high = 0.0;  ///< ... at range-high
  /// |ratio_at_high - ratio_at_low|: bar length in a tornado chart.
  [[nodiscard]] double swing() const;
};

/// Monte-Carlo summary of the FPGA:ASIC ratio distribution.
struct MonteCarloResult {
  int samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// Fraction of samples where the FPGA platform had the lower CFP.
  double fpga_win_fraction = 0.0;
};

namespace detail {

/// Engine primitives behind the sensitivity kind.  `tornado_analysis`
/// evaluates every range one-at-a-time around `base` and returns entries
/// sorted by descending swing (classic tornado order);
/// `monte_carlo_analysis` samples all ranges uniformly and independently
/// `samples` times, deterministic for a fixed `seed`.  Callers run them
/// through `Engine::run` with a sensitivity-kind `ScenarioSpec`.
[[nodiscard]] std::vector<TornadoEntry> tornado_analysis(
    const core::ModelSuite& base, const device::DomainTestcase& testcase,
    const workload::Schedule& schedule, const std::vector<ParameterRange>& ranges);
[[nodiscard]] MonteCarloResult monte_carlo_analysis(
    const core::ModelSuite& base, const device::DomainTestcase& testcase,
    const workload::Schedule& schedule, const std::vector<ParameterRange>& ranges,
    int samples, unsigned seed);

}  // namespace detail

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_SENSITIVITY_HPP
