/// \file breakeven.cpp
/// Closed-form crossover solvers from two model probes per platform.
///
/// The solves are free functions (the engine primitives) that the
/// breakeven kind dispatches to.

#include "scenario/breakeven.hpp"

#include <cmath>
#include <stdexcept>

#include "core/comparator.hpp"
#include "core/paper_config.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {

namespace {

/// Root of the affine function through (x1, y1) and (x2, y2); nullopt for
/// (numerically) parallel-to-axis lines or non-positive roots.
std::optional<double> affine_root(double x1, double y1, double x2, double y2) {
  const double slope = (y2 - y1) / (x2 - x1);
  const double scale = std::max(std::fabs(y1), std::fabs(y2));
  if (scale == 0.0) {
    return std::nullopt;  // identical platforms: no directional crossing
  }
  if (std::fabs(slope) * std::fabs(x2 - x1) < 1e-12 * scale) {
    return std::nullopt;  // flat difference: no root
  }
  const double root = x1 - y1 / slope;
  if (!std::isfinite(root) || root <= 0.0) {
    return std::nullopt;
  }
  return root;
}

/// FPGA-minus-ASIC total at an explicit point.
double difference(const core::LifecycleModel& model,
                  const device::DomainTestcase& testcase, int app_count,
                  units::TimeSpan lifetime, double volume) {
  const workload::Schedule schedule =
      core::paper_schedule(testcase.domain, app_count, lifetime, volume);
  const core::Comparison comparison = core::compare(model, testcase, schedule);
  return comparison.fpga.total.total().canonical() -
         comparison.asic.total.total().canonical();
}

/// Affinity precondition: one-time app-dev accounting.
void require_one_time_accounting(const core::LifecycleModel& model) {
  if (model.suite().appdev.accounting != core::AppDevAccounting::one_time) {
    throw std::invalid_argument(
        "breakeven: per-year accounting makes totals bilinear in (T, N_app); "
        "use a sweep spec instead");
  }
}

/// Validity guard: the schedule must fit one FPGA service life.
void require_single_fleet(const device::DomainTestcase& testcase, int app_count,
                          units::TimeSpan lifetime) {
  const double horizon_years =
      static_cast<double>(app_count) * lifetime.in(units::unit::years);
  const double service_years = testcase.fpga.service_life.in(units::unit::years);
  if (horizon_years > service_years + 1e-9) {
    throw std::invalid_argument(
        "breakeven: schedule exceeds one FPGA service life (" +
        std::to_string(horizon_years) + " > " + std::to_string(service_years) +
        " years); affinity breaks at fleet replacement -- use a timeline spec");
  }
}

}  // namespace

std::optional<double> solve_app_count_breakeven(const core::LifecycleModel& model,
                                                const device::DomainTestcase& testcase,
                                                const BreakevenContext& context) {
  require_one_time_accounting(model);
  require_single_fleet(testcase, /*app_count=*/2, context.app_lifetime);
  const double y1 = difference(model, testcase, 1, context.app_lifetime, context.app_volume);
  const double y2 = difference(model, testcase, 2, context.app_lifetime, context.app_volume);
  const std::optional<double> root = affine_root(1.0, y1, 2.0, y2);
  // Schedules start at one application: a root below 1 means one platform
  // dominates over the whole meaningful range.
  if (root && *root < 1.0) {
    return std::nullopt;
  }
  return root;
}

std::optional<double> solve_lifetime_breakeven(const core::LifecycleModel& model,
                                               const device::DomainTestcase& testcase,
                                               const BreakevenContext& context) {
  using units::unit::years;
  require_one_time_accounting(model);
  require_single_fleet(testcase, context.app_count, 2.0 * years);
  const double y1 =
      difference(model, testcase, context.app_count, 1.0 * years, context.app_volume);
  const double y2 =
      difference(model, testcase, context.app_count, 2.0 * years, context.app_volume);
  return affine_root(1.0, y1, 2.0, y2);
}

std::optional<double> solve_volume_breakeven(const core::LifecycleModel& model,
                                             const device::DomainTestcase& testcase,
                                             const BreakevenContext& context) {
  require_one_time_accounting(model);
  require_single_fleet(testcase, context.app_count, context.app_lifetime);
  const double v1 = 1e5;
  const double v2 = 1e6;
  const double y1 = difference(model, testcase, context.app_count, context.app_lifetime, v1);
  const double y2 = difference(model, testcase, context.app_count, context.app_lifetime, v2);
  return affine_root(v1, y1, v2, y2);
}

}  // namespace greenfpga::scenario
