#ifndef GREENFPGA_WORKLOAD_APPLICATION_HPP
#define GREENFPGA_WORKLOAD_APPLICATION_HPP

/// \file application.hpp
/// Application and schedule model.
///
/// The paper's unit of work is an *application*: something deployed at
/// volume `N_vol` for lifetime `T_i`.  An ASIC platform designs and
/// manufactures a new chip per application; an FPGA platform reconfigures
/// the same fleet.  A `Schedule` is the ordered list of applications a
/// platform serves over the evaluation (the paper's `N_app` applications,
/// assumed sequential: a new application replaces the previous one).

#include <string>
#include <vector>

#include "device/chip_spec.hpp"
#include "units/quantity.hpp"
#include "units/units.hpp"

namespace greenfpga::workload {

/// One deployed application.
struct Application {
  std::string name;
  device::Domain domain = device::Domain::dnn;
  /// Application lifetime T_i: how long this application stays deployed.
  units::TimeSpan lifetime = 2.0 * units::unit::years;
  /// Deployment volume N_vol: accelerator units in the field.
  double volume = 1e6;
  /// Application size in equivalent logic gates (drives N_FPGA).  Zero
  /// means "sized to the device capacity" (the paper's single-chip cases).
  double size_gates = 0.0;

  void validate() const;
};

/// Sequential list of applications served by one platform.
using Schedule = std::vector<Application>;

/// Total deployed wall-clock time of a schedule (sum of lifetimes).
[[nodiscard]] units::TimeSpan total_lifetime(const Schedule& schedule);

/// Bound on the application count of a homogeneous schedule that a spec
/// may ask for (`schedule.app_count` and every `app_count` axis value of
/// the point and frontier kinds): each one is an `Application` built per
/// evaluation, so an unbounded count is unbounded memory.
inline constexpr int kMaxAppCount = 1'000'000;

/// Throws std::invalid_argument, prefixed with `context`, naming the first
/// of an `app_count` axis's `values` that does not round into
/// [1, kMaxAppCount].
void check_app_count_axis(const std::vector<double>& values, const std::string& context);

/// A schedule of `count` identical applications (the paper's sweep
/// workloads): names are suffixed -1, -2, ...
[[nodiscard]] Schedule homogeneous_schedule(int count, const Application& prototype);

/// The paper's canonical sweep prototype for a domain: T_i = 2 years,
/// N_vol = 1e6, sized to the domain testcase device.
[[nodiscard]] Application paper_application(device::Domain domain);

void validate(const Schedule& schedule);

}  // namespace greenfpga::workload

#endif  // GREENFPGA_WORKLOAD_APPLICATION_HPP
