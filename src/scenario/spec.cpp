/// \file spec.cpp
/// ScenarioSpec helpers, validation and canonical JSON round-trip.
///
/// Kind-specific behaviour (parameter sections, kind validation, seed
/// defaults) lives in the per-kind modules under scenario/kinds/; this
/// file owns only the common spec surface and derives the rest by
/// iterating the registry.

#include "scenario/spec.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/sweep.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {

namespace {

using io::Json;
using core::int_field_ctx;
using core::number_field;
using core::number_field_or;
using core::string_field_or;

/// Unknown-key guard, shared with the core config readers.
void check_keys(const Json& json, const std::string& context,
                std::initializer_list<std::string_view> allowed) {
  core::check_known_keys(json, context, allowed);
}

std::string_view domain_token(device::Domain domain) {
  switch (domain) {
    case device::Domain::dnn:
      return "dnn";
    case device::Domain::imgproc:
      return "imgproc";
    case device::Domain::crypto:
      return "crypto";
  }
  return "dnn";
}

device::Domain domain_from_token(const std::string& text) {
  if (text == "dnn" || text == "DNN") return device::Domain::dnn;
  if (text == "imgproc" || text == "ImgProc") return device::Domain::imgproc;
  if (text == "crypto" || text == "Crypto") return device::Domain::crypto;
  throw core::ConfigError("unknown domain \"" + text + "\"");
}

}  // namespace

std::string to_string(ScenarioKind kind) {
  return std::string(kind_module(kind).name);
}

std::optional<ScenarioKind> parse_scenario_kind(std::string_view text) {
  const KindModule* module = find_kind_module(text);
  if (module == nullptr) {
    return std::nullopt;
  }
  return module->kind;
}

std::string to_string(SweepVariable variable) {
  switch (variable) {
    case SweepVariable::app_count:
      return "app_count";
    case SweepVariable::lifetime_years:
      return "lifetime_years";
    case SweepVariable::volume:
      return "volume";
  }
  return "unknown";
}

std::optional<SweepVariable> parse_sweep_variable(std::string_view text) {
  if (text == "app_count" || text == "apps") return SweepVariable::app_count;
  if (text == "lifetime_years" || text == "lifetime") return SweepVariable::lifetime_years;
  if (text == "volume") return SweepVariable::volume;
  return std::nullopt;
}

std::string to_string(AxisScale scale) {
  switch (scale) {
    case AxisScale::list:
      return "list";
    case AxisScale::linear:
      return "linear";
    case AxisScale::log:
      return "log";
  }
  return "unknown";
}

std::vector<double> AxisSpec::values() const {
  switch (scale) {
    case AxisScale::list:
      if (explicit_values.empty()) {
        throw std::invalid_argument("AxisSpec: list axis needs at least one value");
      }
      return explicit_values;
    case AxisScale::linear:
      return linspace(from, to, count);
    case AxisScale::log:
      return logspace(from, to, count);
  }
  throw std::logic_error("AxisSpec: unknown scale");
}

std::string AxisSpec::label() const {
  switch (variable) {
    case SweepVariable::app_count:
      return "N_app";
    case SweepVariable::lifetime_years:
      return "T_i [years]";
    case SweepVariable::volume:
      return "N_vol [units]";
  }
  return "x";
}

AxisSpec AxisSpec::list(SweepVariable variable, std::vector<double> values) {
  AxisSpec axis;
  axis.variable = variable;
  axis.scale = AxisScale::list;
  axis.explicit_values = std::move(values);
  return axis;
}

AxisSpec AxisSpec::linear(SweepVariable variable, double from, double to, int count) {
  AxisSpec axis;
  axis.variable = variable;
  axis.scale = AxisScale::linear;
  axis.from = from;
  axis.to = to;
  axis.count = count;
  return axis;
}

AxisSpec AxisSpec::log(SweepVariable variable, double from, double to, int count) {
  AxisSpec axis;
  axis.variable = variable;
  axis.scale = AxisScale::log;
  axis.from = from;
  axis.to = to;
  axis.count = count;
  return axis;
}

std::vector<core::ParamDistribution> default_distributions() {
  std::vector<core::ParamDistribution> distributions;
  for (const ParameterRange& range : table1_ranges()) {
    distributions.push_back(
        core::ParamDistribution::uniform(range.name, range.low, range.high));
  }
  return distributions;
}

workload::Schedule ScheduleSpec::materialise(device::Domain domain) const {
  if (explicit_schedule) {
    return *explicit_schedule;
  }
  return core::paper_schedule(domain, app_count, lifetime_years * units::unit::years,
                              volume);
}

const workload::Schedule& ScheduleBuffer::assign(const ScheduleSpec& spec,
                                                 device::Domain domain) {
  if (spec.explicit_schedule) {
    return *spec.explicit_schedule;
  }
  if (!built_ || spec.app_count != app_count_ || domain != domain_) {
    schedule_ = spec.materialise(domain);
    prototype_ = workload::paper_application(domain);
    app_count_ = spec.app_count;
    domain_ = domain;
    built_ = true;
    return schedule_;
  }
  // What core::paper_schedule sets on the prototype, and the check
  // workload::homogeneous_schedule runs on it.
  prototype_.lifetime = spec.lifetime_years * units::unit::years;
  prototype_.volume = spec.volume;
  prototype_.validate();
  for (workload::Application& app : schedule_) {
    app.lifetime = prototype_.lifetime;
    app.volume = prototype_.volume;
  }
  return schedule_;
}

ScenarioSpec ScenarioSpec::make(ScenarioKind kind, device::Domain domain) {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.domain = domain;
  spec.suite = core::paper_suite();
  // Seed the schedule from the calibrated paper defaults (single source of
  // truth: a SweepDefaults recalibration must reach the engine path too).
  const core::SweepDefaults defaults = core::paper_sweep_defaults();
  spec.schedule.app_count = defaults.app_count;
  spec.schedule.lifetime_years = defaults.app_lifetime.in(units::unit::years);
  spec.schedule.volume = defaults.app_volume;
  for (const KindModule* module : all_kind_modules()) {
    if (module->seed_defaults != nullptr) {
      module->seed_defaults(spec);
    }
  }
  return spec;
}

void ScenarioSpec::validate() const {
  const KindModule& module = kind_module(kind);
  if (axes.size() != module.expected_axes) {
    throw std::invalid_argument("ScenarioSpec '" + name + "': kind " + to_string(kind) +
                                " needs exactly " + std::to_string(module.expected_axes) +
                                " axes, got " + std::to_string(axes.size()));
  }
  if (!axes.empty() && schedule.explicit_schedule) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': axes cannot override an explicit schedule");
  }
  for (const AxisSpec& axis : axes) {
    if (axis.scale == AxisScale::list) {
      if (axis.explicit_values.empty()) {
        throw std::invalid_argument("ScenarioSpec '" + name + "': axis " +
                                    to_string(axis.variable) + " has no values");
      }
    } else if (axis.count < 2) {
      throw std::invalid_argument("ScenarioSpec '" + name + "': axis " +
                                  to_string(axis.variable) +
                                  " needs count >= 2 samples");
    } else if (axis.scale == AxisScale::log && (axis.from <= 0.0 || axis.to <= 0.0)) {
      throw std::invalid_argument("ScenarioSpec '" + name + "': log axis " +
                                  to_string(axis.variable) + " needs positive bounds");
    }
    if (axis.variable == SweepVariable::app_count) {
      // Each point builds llround(value) applications.
      workload::check_app_count_axis(axis.values(), "ScenarioSpec '" + name + "': ");
    }
  }
  if (!schedule.explicit_schedule) {
    if (schedule.app_count < 1) {
      throw std::invalid_argument("ScenarioSpec '" + name + "': app_count must be >= 1");
    }
    if (schedule.lifetime_years <= 0.0 || schedule.volume <= 0.0) {
      throw std::invalid_argument("ScenarioSpec '" + name +
                                  "': lifetime and volume must be positive");
    }
  }
  for (const PlatformRef& platform : platforms) {
    if (platform.name.empty()) {
      throw std::invalid_argument("ScenarioSpec '" + name +
                                  "': platform names must be non-empty");
    }
  }
  if (module.validate != nullptr) {
    module.validate(*this);
  }
}

// -- JSON -----------------------------------------------------------------------

namespace {

AxisSpec axis_from_json(const Json& json) {
  check_keys(json, "axis", {"variable", "scale", "from", "to", "count", "values"});
  AxisSpec axis;
  const std::string variable = string_field_or(json, "axis", "variable", "app_count");
  const auto parsed_variable = parse_sweep_variable(variable);
  if (!parsed_variable) {
    throw core::ConfigError("unknown axis variable \"" + variable + "\"");
  }
  axis.variable = *parsed_variable;
  const std::string scale = string_field_or(json, "axis", "scale",
                                           json.contains("values") ? "list" : "linear");
  if (scale == "list") {
    axis.scale = AxisScale::list;
    if (!json.contains("values")) {
      throw core::ConfigError("list axis needs a \"values\" array");
    }
    axis.explicit_values = core::numbers_field(json, "axis", "values");
  } else if (scale == "linear" || scale == "log") {
    axis.scale = scale == "linear" ? AxisScale::linear : AxisScale::log;
    if (!json.contains("from") || !json.contains("to") || !json.contains("count")) {
      throw core::ConfigError(scale + " axis needs \"from\", \"to\" and \"count\"");
    }
    axis.from = number_field(json, "axis", "from");
    axis.to = number_field(json, "axis", "to");
    axis.count = static_cast<int>(int_field_ctx(json, "axis", "count", 0, 2, 1'000'000));
  } else {
    throw core::ConfigError("unknown axis scale \"" + scale + "\"");
  }
  return axis;
}

PlatformRef platform_from_json(const Json& json) {
  PlatformRef platform;
  if (json.is_string()) {
    platform.name = json.as_string();
    return platform;
  }
  check_keys(json, "platform", {"name", "chip"});
  platform.name = string_field_or(json, "platform", "name", "");
  if (platform.name.empty()) {
    throw core::ConfigError("platform entries need a \"name\"");
  }
  if (json.contains("chip")) {
    platform.chip = core::chip_from_json(json.at("chip"));
  }
  return platform;
}

ScheduleSpec schedule_spec_from_json(const Json& json, ScheduleSpec schedule) {
  check_keys(json, "schedule",
             {"app_count", "lifetime_years", "volume", "applications"});
  schedule.app_count =
      static_cast<int>(int_field_ctx(json, "schedule", "app_count",
                                     schedule.app_count, 1, workload::kMaxAppCount));
  schedule.lifetime_years =
      number_field_or(json, "schedule", "lifetime_years", schedule.lifetime_years);
  schedule.volume = number_field_or(json, "schedule", "volume", schedule.volume);
  if (json.contains("applications")) {
    schedule.explicit_schedule = core::schedule_from_json(json.at("applications"));
  }
  return schedule;
}

// -- the common sections' writers (see spec_sections) --------------------------

void write_axes(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.key("axes");
  out.begin_array();
  for (const AxisSpec& axis : spec.axes) {
    out.begin_object();
    if (axis.scale == AxisScale::list) {
      out.string("scale", to_string(axis.scale));
      out.numbers("values", axis.explicit_values);
    } else {
      out.number("count", axis.count);
      out.number("from", axis.from);
      out.string("scale", to_string(axis.scale));
      out.number("to", axis.to);
    }
    out.string("variable", to_string(axis.variable));
    out.end_object();
  }
  out.end_array();
}

void write_domain(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.string("domain", domain_token(spec.domain));
}

void write_grid_profile(const ScenarioSpec& spec, io::JsonWriter& out) {
  if (!spec.grid_profile) {
    return;
  }
  out.key("grid_profile");
  out.begin_object();
  out.string("policy", spec.grid_profile->policy);
  out.string("profile", spec.grid_profile->profile);
  out.end_object();
}

void write_kind(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.string("kind", kind_module(spec.kind).name);
}

void write_name(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.string("name", spec.name);
}

void write_outputs(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.key("outputs");
  out.begin_object();
  out.key("per_application");
  out.boolean(spec.outputs.per_application);
  out.end_object();
}

void write_platforms(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.key("platforms");
  out.begin_array();
  for (const PlatformRef& platform : spec.platforms) {
    if (!platform.chip) {
      out.string(platform.name);
      continue;
    }
    out.begin_object();
    out.key("chip");
    core::write_json(out, *platform.chip);
    out.string("name", platform.name);
    out.end_object();
  }
  out.end_array();
}

void write_schedule(const ScenarioSpec& spec, io::JsonWriter& out) {
  const ScheduleSpec& schedule = spec.schedule;
  out.key("schedule");
  out.begin_object();
  out.number("app_count", schedule.app_count);
  if (schedule.explicit_schedule) {
    out.key("applications");
    core::write_json(out, *schedule.explicit_schedule);
  }
  out.number("lifetime_years", schedule.lifetime_years);
  out.number("volume", schedule.volume);
  out.end_object();
}

void write_suite(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.key("suite");
  core::write_json(out, spec.suite);
}

/// One top-level spec key and its writer: a common-layer function, or the
/// owning module's `write_params`.
struct SpecSection {
  std::string_view key;
  void (*common)(const ScenarioSpec& spec, io::JsonWriter& out) = nullptr;
  const KindModule* module = nullptr;
};

/// Every top-level spec key -- the common layer's plus each module's
/// `spec_keys` -- in canonical (sorted) order: the order `write_spec`
/// streams them in, and the allowed set `spec_from_json` checks.
const std::vector<SpecSection>& spec_sections() {
  static const std::vector<SpecSection> sections = [] {
    std::vector<SpecSection> out{{"axes", write_axes},
                                 {"domain", write_domain},
                                 {"grid_profile", write_grid_profile},
                                 {"kind", write_kind},
                                 {"name", write_name},
                                 {"outputs", write_outputs},
                                 {"platforms", write_platforms},
                                 {"schedule", write_schedule},
                                 {"suite", write_suite}};
    for (const KindModule* module : all_kind_modules()) {
      for (const std::string_view key : module->spec_keys) {
        out.push_back({key, nullptr, module});
      }
    }
    std::sort(out.begin(), out.end(), [](const SpecSection& a, const SpecSection& b) {
      return a.key < b.key;
    });
    return out;
  }();
  return sections;
}

/// check_known_keys against the registry-derived allowed set (the list is
/// runtime-built, so replicate the same loop and error text).
void check_spec_keys(const Json& json) {
  const std::vector<SpecSection>& sections = spec_sections();
  for (const auto& [key, value] : json.as_object()) {
    const bool known =
        std::any_of(sections.begin(), sections.end(),
                    [&key](const SpecSection& section) { return section.key == key; });
    if (!known) {
      throw core::ConfigError("unknown key \"" + key + "\" in scenario spec");
    }
  }
}

}  // namespace

void write_spec(const ScenarioSpec& spec, io::JsonWriter& out) {
  out.begin_object();
  for (const SpecSection& section : spec_sections()) {
    if (section.common != nullptr) {
      section.common(spec, out);
    } else if (section.module->write_params != nullptr) {
      section.module->write_params(spec, section.key, out);
    }
  }
  out.end_object();
}

Json spec_to_json(const ScenarioSpec& spec) {
  return io::written_json([&spec](io::JsonWriter& out) { write_spec(spec, out); });
}

ScenarioSpec spec_from_json(const Json& json) {
  check_spec_keys(json);
  // Read ahead of the kind, so a bad name is still the first error.
  std::optional<std::string> name;
  if (json.contains("name")) {
    name = json.at("name").as_string();
  }
  const std::string kind = string_field_or(json, "", "kind", "compare");
  const KindModule* module = find_kind_module(kind);
  if (module == nullptr) {
    throw core::ConfigError("unknown scenario kind \"" + kind +
                            "\" (valid: " + kind_name_list() + ")");
  }
  // Seeded once the kind is known: kind-conditional defaults (the fleet
  // section) depend on it.
  ScenarioSpec spec = ScenarioSpec::make(module->kind);
  if (name) {
    spec.name = std::move(*name);
  }
  spec.domain = domain_from_token(string_field_or(json, "", "domain", "dnn"));
  if (json.contains("platforms")) {
    for (const Json& entry : json.at("platforms").as_array()) {
      spec.platforms.push_back(platform_from_json(entry));
    }
  }
  if (json.contains("suite")) {
    spec.suite = core::suite_from_json(json.at("suite"), spec.suite);
  }
  if (json.contains("schedule")) {
    // Partial schedule objects keep the make()-seeded paper defaults for
    // whatever they omit ("omitted fields keep their paper defaults").
    spec.schedule = schedule_spec_from_json(json.at("schedule"), spec.schedule);
  }
  if (json.contains("axes")) {
    for (const Json& entry : json.at("axes").as_array()) {
      spec.axes.push_back(axis_from_json(entry));
    }
  }
  if (json.contains("grid_profile")) {
    const Json& entry = json.at("grid_profile");
    check_keys(entry, "grid_profile", {"profile", "policy"});
    GridProfileSpec profile;
    profile.profile = string_field_or(entry, "grid_profile", "profile", profile.profile);
    profile.policy = string_field_or(entry, "grid_profile", "policy", profile.policy);
    spec.grid_profile = std::move(profile);
  }
  for (const KindModule* each : all_kind_modules()) {
    if (each->parse_params != nullptr) {
      each->parse_params(json, spec);
    }
  }
  if (json.contains("outputs")) {
    check_keys(json.at("outputs"), "outputs", {"per_application"});
    spec.outputs.per_application =
        json.at("outputs").bool_or("per_application", spec.outputs.per_application);
  }
  spec.validate();
  return spec;
}

ScenarioSpec load_spec(const std::string& path) {
  // Every parse/validation failure names the offending file: a CLI user
  // piping several specs must be able to tell which one was bad.
  try {
    return load_spec_json(io::parse_json_file(path), path);
  } catch (const io::JsonError& error) {
    // parse_json_file already leads with the path; drop it rather than
    // name the file twice in one message.
    std::string message = error.what();
    const std::string prefix = path + ": ";
    if (message.rfind(prefix, 0) == 0) {
      message.erase(0, prefix.size());
    }
    throw core::ConfigError("spec file '" + path + "': " + message);
  }
}

ScenarioSpec load_spec_json(const Json& json, const std::string& source) {
  try {
    return spec_from_json(json);
  } catch (const core::ConfigError& error) {
    throw core::ConfigError("spec file '" + source + "': " + error.what());
  } catch (const io::JsonError& error) {
    throw core::ConfigError("spec file '" + source + "': " + error.what());
  } catch (const std::invalid_argument& error) {
    throw core::ConfigError("spec file '" + source + "': " + error.what());
  }
}

}  // namespace greenfpga::scenario
