/// \file breakeven.cpp
/// The breakeven kind: closed-form crossover solves in all three
/// deployment variables.

#include <optional>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kSpecKeys[] = {"breakeven"};
constexpr std::string_view kResultKeys[] = {"breakeven"};

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  out.key("breakeven");
  out.begin_object();
  out.key("solve_app_count");
  out.boolean(spec.breakeven.solve_app_count);
  out.key("solve_lifetime");
  out.boolean(spec.breakeven.solve_lifetime);
  out.key("solve_volume");
  out.boolean(spec.breakeven.solve_volume);
  out.end_object();
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("breakeven")) {
    return;
  }
  core::check_known_keys(json.at("breakeven"), "breakeven",
                         {"solve_app_count", "solve_lifetime", "solve_volume"});
  spec.breakeven.solve_app_count =
      json.at("breakeven").bool_or("solve_app_count", spec.breakeven.solve_app_count);
  spec.breakeven.solve_lifetime =
      json.at("breakeven").bool_or("solve_lifetime", spec.breakeven.solve_lifetime);
  spec.breakeven.solve_volume =
      json.at("breakeven").bool_or("solve_volume", spec.breakeven.solve_volume);
}

void validate(const ScenarioSpec& spec) {
  // This kind is parameterised by the homogeneous fields only (the
  // solver's context is a fixed point); silently dropping an application
  // list would be a trap.
  require_homogeneous_schedule(spec);
}

void execute(const KindRunContext& /*context*/, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  const device::DomainTestcase testcase = testcase_of(result, "breakeven");
  const core::LifecycleModel model(suite);
  const BreakevenContext context{
      .app_count = spec.schedule.app_count,
      .app_lifetime = spec.schedule.lifetime_years * units::unit::years,
      .app_volume = spec.schedule.volume,
  };
  BreakevenReport report;
  if (spec.breakeven.solve_app_count) {
    report.app_count = solve_app_count_breakeven(model, testcase, context);
  }
  if (spec.breakeven.solve_lifetime) {
    report.lifetime_years = solve_lifetime_breakeven(model, testcase, context);
  }
  if (spec.breakeven.solve_volume) {
    report.volume = solve_volume_breakeven(model, testcase, context);
  }
  result.breakeven = report;
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int /*threads*/) {
  if (!result.breakeven) {
    return;
  }
  // Requested solves always emit their key (null = no crossover);
  // unrequested solves omit it, so consumers can tell the states apart.
  const auto emit = [&out](bool requested, io::JsonKey key,
                           const std::optional<double>& value) {
    if (!requested) {
      return;
    }
    out.key(key);
    if (value) {
      out.number(*value);
    } else {
      out.null();
    }
  };
  out.key("breakeven");
  out.begin_object();
  emit(result.spec.breakeven.solve_app_count, "app_count", result.breakeven->app_count);
  emit(result.spec.breakeven.solve_lifetime, "lifetime_years",
       result.breakeven->lifetime_years);
  emit(result.spec.breakeven.solve_volume, "volume", result.breakeven->volume);
  out.end_object();
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (!json.contains("breakeven")) {
    return;
  }
  const Json& breakeven = json.at("breakeven");
  core::check_known_keys(breakeven, "result breakeven",
                         {"app_count", "lifetime_years", "volume"});
  BreakevenReport report;
  const auto read = [&breakeven](const char* key) -> std::optional<double> {
    if (!breakeven.contains(key) || breakeven.at(key).is_null()) {
      return std::nullopt;
    }
    return breakeven.at(key).as_number_total();
  };
  report.app_count = read("app_count");
  report.lifetime_years = read("lifetime_years");
  report.volume = read("volume");
  result.breakeven = report;
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  const BreakevenReport& report = *result.breakeven;
  ResultFrame frame;
  frame.name = "breakeven";
  frame.columns = {Column{.name = "variable", .unit = "", .precision = 4},
                   Column{.name = "requested", .unit = "", .precision = 4},
                   Column{.name = "breakeven", .unit = "", .precision = 4}};
  const auto row = [&frame](const char* variable, bool requested,
                            const std::optional<double>& value) {
    frame.add_row({Cell(std::string(variable)),
                   Cell(std::string(requested ? "yes" : "no")),
                   value ? Cell(*value) : Cell(nullptr)});
  };
  row("N_app", result.spec.breakeven.solve_app_count, report.app_count);
  row("T_i [years]", result.spec.breakeven.solve_lifetime, report.lifetime_years);
  row("N_vol [units]", result.spec.breakeven.solve_volume, report.volume);
  frames.push_back(std::move(frame));
}

}  // namespace

const KindModule& breakeven_module() {
  static const KindModule module{
      .kind = ScenarioKind::breakeven,
      .name = "breakeven",
      .summary = "closed-form crossover solves in all three variables",
      .spec_keys = kSpecKeys,
      .write_params = write_params,
      .parse_params = parse_params,
      .validate = validate,
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
