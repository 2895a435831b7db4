#ifndef GREENFPGA_SCENARIO_BREAKEVEN_HPP
#define GREENFPGA_SCENARIO_BREAKEVEN_HPP

/// \file breakeven.hpp
/// Closed-form crossover (break-even) solver.
///
/// For homogeneous schedules under one-time app-dev accounting, both
/// platform totals are *affine* in each scenario variable separately:
///
///   * in `N_app`  (the ASIC line passes through the origin),
///   * in `T_i`    (operation accrues linearly),
///   * in `N_vol`  (silicon, operation and configuration scale per unit).
///
/// So every crossover the sweep engine finds by scanning has an exact
/// solution from two model probes per platform (slope + intercept).  The
/// solver works by probing the production `LifecycleModel` rather than
/// re-deriving coefficients, so it is exact for the implemented model and
/// doubles as an independent check of the sweep machinery
/// (tests/breakeven_test.cpp pins solver vs sweep to 1e-6).
///
/// Fig. 9-style horizons that replace the FPGA fleet break the affinity
/// (embodied carbon becomes a step function of time); the solver is only
/// valid within a single fleet service life, which it asserts.

#include <optional>

#include "core/lifecycle_model.hpp"
#include "device/catalog.hpp"
#include "units/quantity.hpp"

namespace greenfpga::scenario {

/// Fixed-point context for a break-even query: the two variables not being
/// solved for are held at these values.
struct BreakevenContext {
  int app_count = 5;
  units::TimeSpan app_lifetime = 2.0 * units::unit::years;
  double app_volume = 1e6;
};

/// Engine primitives behind the breakeven kind: the closed-form solves,
/// probing `model` directly.  Each validates the one-time-accounting and
/// single-fleet preconditions (std::invalid_argument on violation) and
/// returns the positive root at which the platforms' totals are equal
/// with the other two variables from `context` -- nullopt if the lines are
/// parallel or the root is non-positive (one platform dominates).  Callers
/// run them through `Engine::run` with a breakeven-kind `ScenarioSpec`.
[[nodiscard]] std::optional<double> solve_app_count_breakeven(
    const core::LifecycleModel& model, const device::DomainTestcase& testcase,
    const BreakevenContext& context);
[[nodiscard]] std::optional<double> solve_lifetime_breakeven(
    const core::LifecycleModel& model, const device::DomainTestcase& testcase,
    const BreakevenContext& context);
[[nodiscard]] std::optional<double> solve_volume_breakeven(
    const core::LifecycleModel& model, const device::DomainTestcase& testcase,
    const BreakevenContext& context);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_BREAKEVEN_HPP
