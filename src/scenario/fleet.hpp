#ifndef GREENFPGA_SCENARIO_FLEET_HPP
#define GREENFPGA_SCENARIO_FLEET_HPP

/// \file fleet.hpp
/// The `fleet` scenario kind: a mixed-platform datacenter serving a
/// 24-hour traffic trace across regions with distinct grid profiles.
///
/// The paper evaluates one platform against one schedule; a datacenter
/// operator sizes a *fleet* against concurrent services whose demand
/// varies by hour and whose carbon cost varies by where (and when) the
/// fleet runs.  The simulation:
///
///   * aggregates the services' hourly demand traces into a pooled peak
///     (reconfigurable platforms time-share one pool) and a sum of
///     per-service peaks (ASICs dedicate silicon per service);
///   * charges FPGA pools a reconfiguration-amortization overhead --
///     swapping bitstreams between services costs fleet-hours, so the
///     pool is over-provisioned by `1 + overhead * swaps/day / 24`;
///   * weights each region's `act::DailyProfile` by the hours demand
///     actually lands in (a solar-duck region is cheap for midday-heavy
///     traffic, expensive for evening peaks) and scales the suite's
///     use-phase intensity by the demand-weighted fleet mean;
///   * evaluates every platform's lifecycle CFP for the sized fleet over
///     the horizon, optionally as a Monte-Carlo distribution over the
///     spec's Table 1 parameter distributions.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/lifecycle_model.hpp"
#include "device/chip_spec.hpp"
#include "io/json.hpp"
#include "io/json_writer.hpp"

namespace greenfpga::scenario {

/// One deployment region: a named 24-hour grid-intensity profile plus its
/// share of the fleet and its annual-mean intensity relative to the suite.
struct FleetRegionSpec {
  std::string name = "region";
  /// "uniform" | "solar_duck" | "windy_night" (act::DailyProfile).
  std::string profile = "uniform";
  /// Relative share of the fleet placed here (normalised over regions).
  double weight = 1.0;
  /// Annual-mean intensity of this region's grid relative to the suite's
  /// `operation.use_intensity` (0.5 = a grid half as carbon-intense).
  double intensity_scale = 1.0;
};

/// One service the fleet serves: its peak concurrent demand in accelerator
/// units and an optional 24-hour demand-multiplier trace (empty = flat).
struct FleetServiceSpec {
  std::string name = "service";
  /// Accelerator units needed at the service's busiest hour.
  double peak_load = 1.0;
  /// Hourly demand multipliers (24 entries, each in [0, 1] of peak_load);
  /// empty means flat demand at peak_load around the clock.
  std::vector<double> trace;
};

/// Fleet-kind parameters.  Monte-Carlo support reuses the spec's
/// `montecarlo.distributions` / `seed` / `percentiles`; `mc_samples`
/// controls the sample count (0 = point estimate only).
struct FleetSpec {
  std::vector<FleetRegionSpec> regions;
  std::vector<FleetServiceSpec> services;
  /// Evaluation horizon (every service runs concurrently over it).
  double horizon_years = 6.0;
  /// Target utilisation of the provisioned pool, in (0, 1].
  double utilization = 0.7;
  /// Fleet-hours lost per bitstream swap (FPGA platforms only).
  double reconfig_overhead_hours = 0.5;
  /// Monte-Carlo samples over `montecarlo.distributions` (0 = off).
  int mc_samples = 0;

  /// Structural validation; throws std::invalid_argument with messages
  /// prefixed "ScenarioSpec '<scenario_name>': ".
  void validate(const std::string& scenario_name) const;
};

/// The default two-region, two-service datacenter: a solar-heavy region
/// carrying most of the fleet plus a low-carbon windy region, serving a
/// diurnal interactive service and a flat batch service.
[[nodiscard]] FleetSpec default_fleet_spec();

/// One platform's sized-and-evaluated fleet.
struct FleetGroupResult {
  core::CfpBreakdown total;      ///< lifecycle CFP of the whole fleet
  double units = 0.0;            ///< provisioned accelerator units
  double reconfig_factor = 1.0;  ///< over-provisioning from bitstream swaps
};

/// The fleet-kind payload.
struct FleetResult {
  std::vector<FleetGroupResult> groups;    ///< one per spec platform
  /// Demand-weighted intensity multiplier per region (profile shape times
  /// `intensity_scale`): what the region's grid costs when demand happens.
  std::vector<double> region_multipliers;
  double peak_units = 0.0;  ///< pooled concurrent peak demand
};

/// Size and evaluate the fleet on every chip.  Deterministic; `suite` is
/// the effective suite (grid profile applied).  Throws
/// std::invalid_argument on unknown region profiles.
[[nodiscard]] FleetResult simulate_fleet(const FleetSpec& fleet, device::Domain domain,
                                         const core::ModelSuite& suite,
                                         std::span<const device::ChipSpec> chips);

/// Parse a fleet spec section; omitted scalar fields keep `base`'s values,
/// "regions" / "services" arrays replace wholesale when present.
[[nodiscard]] FleetSpec fleet_spec_from_json(const io::Json& json, FleetSpec base);

/// Write the canonical JSON object of a fleet result payload.
void write_fleet_result(io::JsonWriter& out, const FleetResult& result);

/// Inverse of `write_fleet_result`.
[[nodiscard]] FleetResult fleet_result_from_json(const io::Json& json);

}  // namespace greenfpga::scenario

namespace greenfpga::core {

/// Canonical JSON of a fleet spec section (every field, defaults included,
/// keys sorted).  Declared beside its type so core/ stays below scenario/.
void write_json(io::JsonWriter& out, const scenario::FleetSpec& fleet);

}  // namespace greenfpga::core

#endif  // GREENFPGA_SCENARIO_FLEET_HPP
