#ifndef GREENFPGA_SCENARIO_TIMELINE_HPP
#define GREENFPGA_SCENARIO_TIMELINE_HPP

/// \file timeline.hpp
/// Multi-decade timeline simulation with chip-lifetime replacement
/// (paper §4.2(E), Fig. 9).
///
/// The 1-D sweeps treat the evaluation window as `N_app * T_i` with a
/// single FPGA fleet purchase.  Once the evaluation horizon exceeds the
/// FPGA's physical service life (15 years), the fleet must be
/// re-manufactured, producing visible jumps in the FPGA's cumulative CFP
/// at 15/30/... years -- whereas the ASIC platform already re-manufactures
/// for every application, so its staircase is unchanged.  The simulation
/// replays that cumulative timeline:
///
///   * at each application boundary (every `app_lifetime`): ASIC pays
///     design + fleet silicon; FPGA pays application development;
///   * at each FPGA service-life boundary: FPGA pays fleet silicon again
///     (manufacturing + packaging + EOL; the design already exists);
///   * operation accrues continuously on both platforms.

#include <vector>

#include "core/lifecycle_model.hpp"
#include "device/catalog.hpp"
#include "scenario/sweep.hpp"

namespace greenfpga::scenario {

/// Cumulative CFP series for both platforms.
struct TimelineSeries {
  std::vector<double> time_years;
  std::vector<double> asic_cumulative_kg;
  std::vector<double> fpga_cumulative_kg;
  /// Times (years) at which the FPGA fleet was (re)purchased: 0, 15, 30...
  std::vector<double> fpga_purchase_years;
  /// Crossings of the two cumulative curves over the horizon.
  [[nodiscard]] std::vector<Crossover> crossovers() const;
};

/// Engine primitive behind the timeline kind: replay the cumulative
/// timeline for an explicit testcase, all durations in years (paper
/// Fig. 9: 45-year horizon, 1-year applications, 1e6 volume, 0.25-year
/// step, 15-year FPGA service life from the chip spec).  Callers run it
/// through `Engine::run` with a timeline-kind `ScenarioSpec`.
[[nodiscard]] TimelineSeries simulate_timeline(const core::LifecycleModel& model,
                                               const device::DomainTestcase& testcase,
                                               double horizon_years,
                                               double app_lifetime_years, double volume,
                                               double step_years);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_TIMELINE_HPP
