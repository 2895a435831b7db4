/// \file timeline.cpp
/// Cumulative CFP timeline with fleet re-manufacture at chip service life (Fig. 9).

#include "scenario/timeline.hpp"

#include <cmath>
#include <stdexcept>

#include "device/iso_performance.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {

namespace {

using units::unit::years;

/// Number of events with period `period` that have occurred by time `t`
/// (events at 0, period, 2*period, ..., strictly before the horizon end is
/// handled by the caller).  Epsilon guards the exact-boundary samples.
int events_by(double t_years, double period_years) {
  return 1 + static_cast<int>(std::floor((t_years + 1e-9) / period_years));
}

}  // namespace

std::vector<Crossover> TimelineSeries::crossovers() const {
  return find_crossovers(time_years, asic_cumulative_kg, fpga_cumulative_kg);
}

TimelineSeries simulate_timeline(const core::LifecycleModel& model,
                                 const device::DomainTestcase& testcase,
                                 double horizon_years, double app_lifetime_years,
                                 double volume, double step_years) {
  if (horizon_years <= 0.0 || app_lifetime_years <= 0.0 || step_years <= 0.0) {
    throw std::invalid_argument("timeline: durations must be positive");
  }
  if (volume <= 0.0) {
    throw std::invalid_argument("timeline: volume must be positive");
  }

  const double horizon = horizon_years;
  const double app_period = app_lifetime_years;
  const double step = step_years;
  const double fpga_life = testcase.fpga.service_life.in(years);

  // Per-event carbon quantities (volume-scaled).
  const int n_fpga = device::chips_per_unit(testcase.fpga, /*application_gates=*/0.0);
  const double fleet_chips = volume * static_cast<double>(n_fpga);

  const units::CarbonMass asic_embodied_per_app =
      model.per_chip_embodied(testcase.asic).total() * volume +
      model.design_model().design_carbon(testcase.asic);
  const units::CarbonMass fpga_fleet_silicon =
      model.per_chip_embodied(testcase.fpga).total() * fleet_chips;
  const units::CarbonMass fpga_design = model.design_model().design_carbon(testcase.fpga);
  const units::CarbonMass fpga_appdev_per_app =
      model.appdev_model().per_application(fleet_chips, /*is_fpga=*/true).total();
  const units::CarbonMass asic_appdev_per_app =
      model.appdev_model().per_application(volume, /*is_fpga=*/false).total();

  // Continuous operational rates (per year of deployment).
  const units::CarbonMass asic_op_per_year =
      model.operational_model().annual_carbon(testcase.asic.peak_power) * volume;
  const units::CarbonMass fpga_op_per_year =
      model.operational_model().annual_carbon(testcase.fpga.peak_power *
                                              static_cast<double>(n_fpga)) *
      volume;

  TimelineSeries series;
  const int samples = static_cast<int>(std::round(horizon / step)) + 1;
  series.time_years.reserve(static_cast<std::size_t>(samples));

  // Events happen at 0, period, 2*period, ... strictly inside the horizon;
  // nothing new starts at the horizon endpoint itself.
  const int apps_total = 1 + static_cast<int>(std::floor((horizon - 1e-9) / app_period));
  const int fleet_purchases_total =
      1 + static_cast<int>(std::floor((horizon - 1e-9) / fpga_life));
  for (int p = 0; p < fleet_purchases_total; ++p) {
    series.fpga_purchase_years.push_back(static_cast<double>(p) * fpga_life);
  }

  for (int i = 0; i < samples; ++i) {
    const double t = std::min(static_cast<double>(i) * step, horizon);

    // Discrete events so far.
    const int apps_started = std::min(events_by(t, app_period), apps_total);
    const int fleets_bought = std::min(events_by(t, fpga_life), fleet_purchases_total);

    const double asic_kg = asic_embodied_per_app.canonical() * apps_started +
                           asic_appdev_per_app.canonical() * apps_started +
                           asic_op_per_year.canonical() * t;
    const double fpga_kg = fpga_design.canonical() +
                           fpga_fleet_silicon.canonical() * fleets_bought +
                           fpga_appdev_per_app.canonical() * apps_started +
                           fpga_op_per_year.canonical() * t;

    series.time_years.push_back(t);
    series.asic_cumulative_kg.push_back(asic_kg);
    series.fpga_cumulative_kg.push_back(fpga_kg);
  }
  return series;
}

}  // namespace greenfpga::scenario
