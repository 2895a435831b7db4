/// \file fleet.cpp
/// The fleet kind: a mixed-platform datacenter serving a 24-hour traffic
/// trace across regions with distinct grid profiles (see
/// scenario/fleet.hpp for the simulation; this module is its registry
/// binding).  The first kind born registry-native: no generic layer names
/// it.

#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "report/figure_writer.hpp"
#include "scenario/fleet.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"
#include "units/format.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kSpecKeys[] = {"fleet"};
constexpr std::string_view kResultKeys[] = {"fleet"};

void seed_defaults(ScenarioSpec& spec) {
  // Unlike the always-emitted kind sections, `fleet` is conditional (like
  // grid_profile): seeding it unconditionally would change every existing
  // spec's canonical bytes.
  if (spec.kind == ScenarioKind::fleet && !spec.fleet) {
    spec.fleet = default_fleet_spec();
  }
}

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  if (spec.fleet) {
    out.key("fleet");
    core::write_json(out, *spec.fleet);
  }
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("fleet")) {
    return;
  }
  spec.fleet = fleet_spec_from_json(json.at("fleet"),
                                    spec.fleet ? *spec.fleet : default_fleet_spec());
}

void validate(const ScenarioSpec& spec) {
  if (!spec.fleet) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec.name +
        "': fleet kind needs a fleet section (ScenarioSpec::make seeds the default)");
  }
  require_homogeneous_schedule(spec);
  spec.fleet->validate(spec.name);
  // Fleet Monte-Carlo samples the spec's montecarlo.distributions, so
  // they need the same validation as the montecarlo kind.
  if (spec.fleet->mc_samples > 0) {
    validate_spec_distributions(spec);
  }
}

/// A datacenter mixes dedicated and reconfigurable silicon; the paper's
/// three-way comparison is the natural default fleet.
std::vector<PlatformRef> default_platforms() {
  return {PlatformRef{.name = "asic", .chip = std::nullopt},
          PlatformRef{.name = "fpga", .chip = std::nullopt},
          PlatformRef{.name = "gpu", .chip = std::nullopt}};
}

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  const FleetSpec& fleet = *spec.fleet;
  result.fleet = simulate_fleet(fleet, spec.domain, suite, result.resolved_chips);
  if (fleet.mc_samples <= 0) {
    return;
  }

  // Monte-Carlo over the spec's Table 1 distributions: sample i draws
  // from the counter stream (seed, i, dimension), re-simulates the whole
  // fleet on the sampled suite, and writes pre-sized slot i -- the same
  // bit-identical-for-any-thread-count contract as the montecarlo kind.
  const MonteCarloUqSpec& mc = spec.montecarlo;
  const auto samples = static_cast<std::size_t>(fleet.mc_samples);
  MonteCarloUq uq;
  uq.samples = fleet.mc_samples;
  uq.percentiles = mc.percentiles;
  uq.sample_totals_kg.assign(result.resolved_chips.size(),
                             std::vector<double>(samples, 0.0));
  const std::vector<ParameterRange>& known = table1_ranges();
  std::vector<std::size_t> applier_index;
  applier_index.reserve(mc.distributions.size());
  for (const core::ParamDistribution& distribution : mc.distributions) {
    for (std::size_t r = 0; r < known.size(); ++r) {
      if (known[r].name == distribution.parameter) {
        applier_index.push_back(r);
        break;
      }
    }
  }
  core::parallel_for_state(
      samples, context.threads, [] { return 0; },
      [&](int& /*state*/, std::size_t i) {
        core::ModelSuite sampled = suite;
        for (std::size_t j = 0; j < mc.distributions.size(); ++j) {
          const double u = core::counter_uniform01(mc.seed, i, j);
          known[applier_index[j]].apply(sampled, mc.distributions[j].sample(u));
        }
        const FleetResult sample =
            simulate_fleet(fleet, spec.domain, sampled, result.resolved_chips);
        for (std::size_t p = 0; p < sample.groups.size(); ++p) {
          uq.sample_totals_kg[p][i] = sample.groups[p].total.total().canonical();
        }
      },
      result.resolved_chips.size());
  reduce_montecarlo(uq);
  result.uncertainty = std::move(uq);
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int /*threads*/) {
  if (result.fleet) {
    out.key("fleet");
    write_fleet_result(out, *result.fleet);
  }
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (json.contains("fleet")) {
    result.fleet = fleet_result_from_json(json.at("fleet"));
  }
}

/// One row per platform: the shared breakdown-component layout plus the
/// fleet sizing columns and the baseline ratio.
ResultFrame fleet_frame(const ScenarioResult& result) {
  const FleetResult& fleet = *result.fleet;
  std::vector<std::pair<std::string, core::CfpBreakdown>> rows;
  rows.reserve(fleet.groups.size());
  for (std::size_t i = 0; i < fleet.groups.size(); ++i) {
    rows.emplace_back(result.platform_names[i], fleet.groups[i].total);
  }
  ResultFrame frame = report::breakdown_frame("fleet", rows);
  frame.columns.push_back(Column{.name = "units", .unit = "", .precision = 6});
  frame.columns.push_back(Column{.name = "reconfig factor", .unit = "", .precision = 4});
  frame.columns.push_back(Column{.name = "vs " + result.platform_names[0], .unit = "",
                                 .precision = 4});
  const double baseline = fleet.groups.front().total.total().canonical();
  for (std::size_t i = 0; i < frame.rows.size(); ++i) {
    frame.rows[i].emplace_back(fleet.groups[i].units);
    frame.rows[i].emplace_back(fleet.groups[i].reconfig_factor);
    frame.rows[i].emplace_back(fleet.groups[i].total.total().canonical() / baseline);
  }
  frame.set_meta("peak demand",
                 units::format_significant(fleet.peak_units, 6) + " units");
  return frame;
}

/// One row per region: its profile, fleet share, and the demand-weighted
/// intensity multiplier the simulation derived for it.
ResultFrame fleet_regions_frame(const ScenarioResult& result) {
  const FleetResult& fleet = *result.fleet;
  ResultFrame frame;
  frame.name = "fleet_regions";
  frame.columns = {Column{.name = "region", .unit = "", .precision = 4},
                   Column{.name = "profile", .unit = "", .precision = 4},
                   Column{.name = "weight", .unit = "", .precision = 4},
                   Column{.name = "intensity multiplier", .unit = "", .precision = 5}};
  const std::vector<FleetRegionSpec>& regions = result.spec.fleet->regions;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    frame.add_row({Cell(regions[r].name), Cell(regions[r].profile),
                   Cell(regions[r].weight), Cell(fleet.region_multipliers[r])});
  }
  return frame;
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  frames.push_back(fleet_frame(result));
  frames.push_back(fleet_regions_frame(result));
  if (result.uncertainty) {
    frames.push_back(uncertainty_frame(result));
  }
}

bool sample_csv(const ScenarioSpec& spec) {
  return spec.fleet && spec.fleet->mc_samples > 0;
}

}  // namespace

const KindModule& fleet_module() {
  static const KindModule module{
      .kind = ScenarioKind::fleet,
      .name = "fleet",
      .summary = "mixed-platform datacenter serving a traffic trace",
      .spec_keys = kSpecKeys,
      .seed_defaults = seed_defaults,
      .write_params = write_params,
      .parse_params = parse_params,
      .validate = validate,
      .default_platforms = default_platforms,
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
      .sample_csv = sample_csv,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
