/// \file fleet.cpp
/// Fleet sizing, regional demand-weighted intensity, and the JSON forms.

#include "scenario/fleet.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "act/grid_profile.hpp"
#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "scenario/kinds/common.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {

namespace {

using io::Json;
using kinds::int_field_ctx;
using kinds::number_field_or;

constexpr int kHours = 24;

act::DailyProfile profile_by_name(const std::string& name) {
  if (name == "uniform") {
    return act::DailyProfile();
  }
  if (name == "solar_duck") {
    return act::DailyProfile::solar_duck();
  }
  if (name == "windy_night") {
    return act::DailyProfile::windy_night();
  }
  throw std::invalid_argument("fleet: unknown region profile '" + name +
                              "' (uniform, solar_duck, windy_night)");
}

double trace_at(const FleetServiceSpec& service, int hour) {
  return service.trace.empty() ? 1.0
                               : service.trace[static_cast<std::size_t>(hour)];
}

/// Per-hour demand of one service, in accelerator units.
double demand_at(const FleetServiceSpec& service, int hour) {
  return service.peak_load * trace_at(service, hour);
}

}  // namespace

void FleetSpec::validate(const std::string& scenario_name) const {
  const std::string prefix = "ScenarioSpec '" + scenario_name + "': fleet ";
  if (regions.empty()) {
    throw std::invalid_argument(prefix + "needs at least one region");
  }
  if (services.empty()) {
    throw std::invalid_argument(prefix + "needs at least one service");
  }
  for (const FleetRegionSpec& region : regions) {
    if (region.name.empty()) {
      throw std::invalid_argument(prefix + "region names must be non-empty");
    }
    if (region.profile != "uniform" && region.profile != "solar_duck" &&
        region.profile != "windy_night") {
      throw std::invalid_argument(prefix + "region \"" + region.name +
                                  "\" has unknown profile \"" + region.profile +
                                  "\" (uniform, solar_duck, windy_night)");
    }
    if (!(region.weight > 0.0)) {
      throw std::invalid_argument(prefix + "region \"" + region.name +
                                  "\" needs weight > 0");
    }
    if (!(region.intensity_scale > 0.0)) {
      throw std::invalid_argument(prefix + "region \"" + region.name +
                                  "\" needs intensity_scale > 0");
    }
  }
  for (const FleetServiceSpec& service : services) {
    if (service.name.empty()) {
      throw std::invalid_argument(prefix + "service names must be non-empty");
    }
    if (!(service.peak_load > 0.0)) {
      throw std::invalid_argument(prefix + "service \"" + service.name +
                                  "\" needs peak_load > 0");
    }
    if (!service.trace.empty() && service.trace.size() != kHours) {
      throw std::invalid_argument(prefix + "service \"" + service.name +
                                  "\" trace needs exactly 24 hourly entries, got " +
                                  std::to_string(service.trace.size()));
    }
    double peak = service.trace.empty() ? 1.0 : 0.0;
    for (const double multiplier : service.trace) {
      if (!(multiplier >= 0.0) || multiplier > 1.0) {
        throw std::invalid_argument(prefix + "service \"" + service.name +
                                    "\" trace multipliers must be in [0, 1]");
      }
      peak = std::max(peak, multiplier);
    }
    if (!(peak > 0.0)) {
      throw std::invalid_argument(prefix + "service \"" + service.name +
                                  "\" trace must reach a non-zero peak");
    }
  }
  if (!(horizon_years > 0.0)) {
    throw std::invalid_argument(prefix + "horizon_years must be positive");
  }
  if (!(utilization > 0.0) || utilization > 1.0) {
    throw std::invalid_argument(prefix + "utilization must be in (0, 1]");
  }
  if (!(reconfig_overhead_hours >= 0.0)) {
    throw std::invalid_argument(prefix + "reconfig_overhead_hours must be >= 0");
  }
  if (mc_samples < 0) {
    throw std::invalid_argument(prefix + "mc_samples must be >= 0");
  }
}

FleetSpec default_fleet_spec() {
  FleetSpec fleet;
  fleet.regions = {
      FleetRegionSpec{.name = "solar-west",
                      .profile = "solar_duck",
                      .weight = 0.6,
                      .intensity_scale = 1.0},
      FleetRegionSpec{.name = "windy-north",
                      .profile = "windy_night",
                      .weight = 0.4,
                      .intensity_scale = 0.55},
  };
  FleetServiceSpec interactive;
  interactive.name = "interactive";
  interactive.peak_load = 120000.0;
  // A diurnal curve peaking in the evening: the awkward case for a
  // solar-duck grid, which is exactly what the kind is for.
  interactive.trace = {0.35, 0.30, 0.28, 0.27, 0.28, 0.32, 0.45, 0.60,
                       0.75, 0.85, 0.90, 0.95, 0.97, 0.95, 0.92, 0.90,
                       0.92, 0.97, 1.00, 0.98, 0.90, 0.75, 0.55, 0.42};
  FleetServiceSpec batch;
  batch.name = "batch";
  batch.peak_load = 80000.0;  // flat trace: always-on background work
  fleet.services = {std::move(interactive), std::move(batch)};
  return fleet;
}

FleetResult simulate_fleet(const FleetSpec& fleet, device::Domain domain,
                           const core::ModelSuite& suite,
                           std::span<const device::ChipSpec> chips) {
  // Aggregate hourly demand over the services: the pooled peak sizes
  // reconfigurable platforms, the per-service peaks size dedicated ASICs.
  std::array<double, kHours> total_demand{};
  double pool_peak = 0.0;
  double dedicated_peak_sum = 0.0;
  for (int hour = 0; hour < kHours; ++hour) {
    for (const FleetServiceSpec& service : fleet.services) {
      total_demand[static_cast<std::size_t>(hour)] += demand_at(service, hour);
    }
    pool_peak = std::max(pool_peak, total_demand[static_cast<std::size_t>(hour)]);
  }
  for (const FleetServiceSpec& service : fleet.services) {
    double peak = 0.0;
    for (int hour = 0; hour < kHours; ++hour) {
      peak = std::max(peak, demand_at(service, hour));
    }
    dedicated_peak_sum += peak;
  }

  // Reconfiguration amortization: a pool cycling through S services swaps
  // bitstreams 2*(S-1) times a day (morning ramp-up, evening ramp-down);
  // each swap idles `reconfig_overhead_hours` of fleet capacity.
  const double swaps_per_day =
      2.0 * static_cast<double>(fleet.services.size() - 1);
  const double reconfig_factor =
      1.0 + fleet.reconfig_overhead_hours * swaps_per_day / 24.0;

  // Demand-weighted regional intensity: what each region's grid costs at
  // the hours demand actually lands in, scaled by its annual mean.
  double demand_sum = 0.0;
  for (const double d : total_demand) {
    demand_sum += d;
  }
  double weight_sum = 0.0;
  for (const FleetRegionSpec& region : fleet.regions) {
    weight_sum += region.weight;
  }
  FleetResult out;
  out.peak_units = pool_peak;
  out.region_multipliers.reserve(fleet.regions.size());
  double fleet_multiplier = 0.0;
  for (const FleetRegionSpec& region : fleet.regions) {
    const act::DailyProfile profile = profile_by_name(region.profile);
    double weighted = 0.0;
    for (int hour = 0; hour < kHours; ++hour) {
      weighted += total_demand[static_cast<std::size_t>(hour)] *
                  profile.multiplier(hour);
    }
    const double shape = demand_sum > 0.0 ? weighted / demand_sum : 1.0;
    const double effective = region.intensity_scale * shape;
    out.region_multipliers.push_back(effective);
    fleet_multiplier += (region.weight / weight_sum) * effective;
  }

  core::ModelSuite regional = suite;
  regional.operation.use_intensity =
      regional.operation.use_intensity * fleet_multiplier;
  const core::LifecycleModel model(regional);

  out.groups.reserve(chips.size());
  for (const device::ChipSpec& chip : chips) {
    const bool reconfigures = chip.kind == device::ChipKind::fpga;
    const double pooled_units =
        pool_peak / fleet.utilization * (reconfigures ? reconfig_factor : 1.0);
    workload::Schedule schedule = core::paper_schedule(
        domain, static_cast<int>(fleet.services.size()),
        fleet.horizon_years * units::unit::years, 1.0);
    for (std::size_t s = 0; s < fleet.services.size(); ++s) {
      const FleetServiceSpec& service = fleet.services[s];
      schedule[s].name = service.name;
      if (chip.is_reusable()) {
        // One pool time-shares every service.
        schedule[s].volume = pooled_units;
      } else {
        // ASICs dedicate a fleet per service, sized for that service's
        // own peak.
        double peak = 0.0;
        for (int hour = 0; hour < kHours; ++hour) {
          peak = std::max(peak, demand_at(service, hour));
        }
        schedule[s].volume = peak / fleet.utilization;
      }
    }
    const core::PlatformCfp cfp = model.evaluate(chip, schedule);
    FleetGroupResult group;
    group.total = cfp.total;
    group.units = chip.is_reusable() ? pooled_units
                                     : dedicated_peak_sum / fleet.utilization;
    group.reconfig_factor = reconfigures ? reconfig_factor : 1.0;
    out.groups.push_back(group);
  }
  return out;
}

// -- JSON -----------------------------------------------------------------------

FleetSpec fleet_spec_from_json(const Json& json, FleetSpec base) {
  core::check_known_keys(json, "fleet",
                         {"regions", "services", "horizon_years", "utilization",
                          "reconfig_overhead_hours", "mc_samples"});
  if (json.contains("regions")) {
    base.regions.clear();
    for (const Json& entry : json.at("regions").as_array()) {
      core::check_known_keys(entry, "fleet region",
                             {"name", "profile", "weight", "intensity_scale"});
      FleetRegionSpec region;
      region.name = entry.string_or("name", region.name);
      region.profile = entry.string_or("profile", region.profile);
      region.weight = number_field_or(entry, "fleet.regions", "weight", region.weight);
      region.intensity_scale = number_field_or(entry, "fleet.regions", "intensity_scale",
                                               region.intensity_scale);
      base.regions.push_back(std::move(region));
    }
  }
  if (json.contains("services")) {
    base.services.clear();
    for (const Json& entry : json.at("services").as_array()) {
      core::check_known_keys(entry, "fleet service", {"name", "peak_load", "trace"});
      FleetServiceSpec service;
      service.name = entry.string_or("name", service.name);
      service.peak_load =
          number_field_or(entry, "fleet.services", "peak_load", service.peak_load);
      if (entry.contains("trace")) {
        for (const Json& multiplier : entry.at("trace").as_array()) {
          service.trace.push_back(multiplier.as_number());
        }
      }
      base.services.push_back(std::move(service));
    }
  }
  base.horizon_years = number_field_or(json, "fleet", "horizon_years", base.horizon_years);
  base.utilization = number_field_or(json, "fleet", "utilization", base.utilization);
  base.reconfig_overhead_hours = number_field_or(json, "fleet", "reconfig_overhead_hours",
                                                 base.reconfig_overhead_hours);
  base.mc_samples = static_cast<int>(
      int_field_ctx(json, "fleet", "mc_samples", base.mc_samples, 0, 10'000'000));
  return base;
}

void write_fleet_result(io::JsonWriter& out, const FleetResult& result) {
  out.begin_object();
  out.key("groups");
  out.begin_array();
  for (const FleetGroupResult& group : result.groups) {
    out.begin_object();
    out.number("reconfig_factor", group.reconfig_factor);
    out.key("total");
    core::write_json(out, group.total);
    out.number("units", group.units);
    out.end_object();
  }
  out.end_array();
  out.number("peak_units", result.peak_units);
  out.numbers("region_multipliers", result.region_multipliers);
  out.end_object();
}

FleetResult fleet_result_from_json(const Json& json) {
  core::check_known_keys(json, "result fleet",
                         {"groups", "region_multipliers", "peak_units"});
  FleetResult result;
  for (const Json& entry : json.at("groups").as_array()) {
    core::check_known_keys(entry, "result fleet group",
                           {"total", "units", "reconfig_factor"});
    FleetGroupResult group;
    group.total = core::breakdown_from_json(entry.at("total"));
    group.units = entry.at("units").as_number_total();
    group.reconfig_factor = entry.at("reconfig_factor").as_number_total();
    result.groups.push_back(group);
  }
  for (const Json& multiplier : json.at("region_multipliers").as_array()) {
    result.region_multipliers.push_back(multiplier.as_number_total());
  }
  result.peak_units = json.at("peak_units").as_number_total();
  return result;
}

}  // namespace greenfpga::scenario

namespace greenfpga::core {

void write_json(io::JsonWriter& out, const scenario::FleetSpec& fleet) {
  out.begin_object();
  out.number("horizon_years", fleet.horizon_years);
  out.number("mc_samples", fleet.mc_samples);
  out.number("reconfig_overhead_hours", fleet.reconfig_overhead_hours);
  out.key("regions");
  out.begin_array();
  for (const scenario::FleetRegionSpec& region : fleet.regions) {
    out.begin_object();
    out.number("intensity_scale", region.intensity_scale);
    out.string("name", region.name);
    out.string("profile", region.profile);
    out.number("weight", region.weight);
    out.end_object();
  }
  out.end_array();
  out.key("services");
  out.begin_array();
  for (const scenario::FleetServiceSpec& service : fleet.services) {
    out.begin_object();
    out.string("name", service.name);
    out.number("peak_load", service.peak_load);
    out.numbers("trace", service.trace);
    out.end_object();
  }
  out.end_array();
  out.number("utilization", fleet.utilization);
  out.end_object();
}

}  // namespace greenfpga::core
