/// \file sensitivity.cpp
/// The sensitivity kind: tornado + Monte-Carlo over Table 1 parameter
/// ranges.

#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using core::int_field_ctx;
using report::Cell;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kSpecKeys[] = {"sensitivity"};
constexpr std::string_view kResultKeys[] = {"tornado", "monte_carlo"};

void seed_defaults(ScenarioSpec& spec) {
  spec.sensitivity.ranges = table1_ranges();
}

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  out.key("sensitivity");
  out.begin_object();
  out.key("ranges");
  out.begin_array();
  for (const ParameterRange& range : spec.sensitivity.ranges) {
    out.string(range.name);
  }
  out.end_array();
  out.key("run_monte_carlo");
  out.boolean(spec.sensitivity.run_monte_carlo);
  out.key("run_tornado");
  out.boolean(spec.sensitivity.run_tornado);
  out.number("samples", spec.sensitivity.samples);
  out.number("seed", spec.sensitivity.seed);
  out.end_object();
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("sensitivity")) {
    return;
  }
  const Json& entry = json.at("sensitivity");
  core::check_known_keys(entry, "sensitivity",
                         {"run_tornado", "run_monte_carlo", "samples", "seed", "ranges"});
  SensitivitySpec& sensitivity = spec.sensitivity;
  sensitivity.run_tornado = entry.bool_or("run_tornado", sensitivity.run_tornado);
  sensitivity.run_monte_carlo =
      entry.bool_or("run_monte_carlo", sensitivity.run_monte_carlo);
  sensitivity.samples = static_cast<int>(
      int_field_ctx(entry, "sensitivity", "samples", sensitivity.samples, 1,
                    100'000'000));
  sensitivity.seed = static_cast<unsigned>(
      int_field_ctx(entry, "sensitivity", "seed", sensitivity.seed, 0,
                    4294967295LL));
  if (entry.contains("ranges")) {
    sensitivity.ranges.clear();
    const std::vector<ParameterRange>& known = table1_ranges();
    for (const Json& value : entry.at("ranges").as_array()) {
      const std::string& range_name = value.as_string();
      bool found = false;
      for (const ParameterRange& range : known) {
        if (range.name == range_name) {
          sensitivity.ranges.push_back(range);
          found = true;
          break;
        }
      }
      if (!found) {
        throw core::ConfigError("unknown sensitivity range \"" + range_name +
                                "\" (see table1_ranges)");
      }
    }
  }
}

void validate(const ScenarioSpec& spec) {
  if (spec.sensitivity.run_monte_carlo && spec.sensitivity.samples < 1) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name +
                                "': sensitivity needs at least one Monte-Carlo sample");
  }
}

void execute(const KindRunContext& /*context*/, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  const device::DomainTestcase testcase = testcase_of(result, "sensitivity");
  const workload::Schedule schedule = spec.schedule.materialise(spec.domain);
  if (spec.sensitivity.run_tornado) {
    result.tornado =
        detail::tornado_analysis(suite, testcase, schedule, spec.sensitivity.ranges);
  }
  if (spec.sensitivity.run_monte_carlo) {
    result.monte_carlo = detail::monte_carlo_analysis(
        suite, testcase, schedule, spec.sensitivity.ranges, spec.sensitivity.samples,
        spec.sensitivity.seed);
  }
}

void write_result(const ScenarioResult& result, std::string_view key, io::JsonWriter& out,
                  int /*threads*/) {
  if (key == "tornado" && !result.tornado.empty()) {
    out.key("tornado");
    out.begin_array();
    for (const TornadoEntry& entry : result.tornado) {
      out.begin_object();
      out.string("name", entry.name);
      out.number("ratio_at_high", entry.ratio_at_high);
      out.number("ratio_at_low", entry.ratio_at_low);
      out.number("swing", entry.swing());
      out.end_object();
    }
    out.end_array();
  } else if (key == "monte_carlo" && result.monte_carlo) {
    const MonteCarloResult& mc = *result.monte_carlo;
    out.key("monte_carlo");
    out.begin_object();
    out.number("fpga_win_fraction", mc.fpga_win_fraction);
    out.number("mean", mc.mean);
    out.number("p05", mc.p05);
    out.number("p50", mc.p50);
    out.number("p95", mc.p95);
    out.number("samples", mc.samples);
    out.number("stddev", mc.stddev);
    out.end_object();
  }
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (json.contains("tornado")) {
    for (const Json& entry : json.at("tornado").as_array()) {
      core::check_known_keys(entry, "result tornado entry",
                             {"name", "ratio_at_low", "ratio_at_high", "swing"});
      TornadoEntry tornado;
      tornado.name = entry.at("name").as_string();
      tornado.ratio_at_low = entry.at("ratio_at_low").as_number_total();
      tornado.ratio_at_high = entry.at("ratio_at_high").as_number_total();
      result.tornado.push_back(std::move(tornado));
    }
  }
  if (json.contains("monte_carlo")) {
    const Json& mc = json.at("monte_carlo");
    core::check_known_keys(mc, "result monte_carlo",
                           {"samples", "mean", "stddev", "p05", "p50", "p95",
                            "fpga_win_fraction"});
    MonteCarloResult summary;
    summary.samples = static_cast<int>(mc.at("samples").as_int());
    summary.mean = mc.at("mean").as_number_total();
    summary.stddev = mc.at("stddev").as_number_total();
    summary.p05 = mc.at("p05").as_number_total();
    summary.p50 = mc.at("p50").as_number_total();
    summary.p95 = mc.at("p95").as_number_total();
    summary.fpga_win_fraction = mc.at("fpga_win_fraction").as_number_total();
    result.monte_carlo = summary;
  }
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  if (!result.tornado.empty()) {
    ResultFrame frame;
    frame.name = "tornado";
    frame.columns = {Column{.name = "parameter", .unit = "", .precision = 4},
                     Column{.name = "ratio at low", .unit = "", .precision = 4},
                     Column{.name = "ratio at high", .unit = "", .precision = 4},
                     Column{.name = "swing", .unit = "", .precision = 4}};
    for (const TornadoEntry& entry : result.tornado) {
      frame.add_row({Cell(entry.name), Cell(entry.ratio_at_low),
                     Cell(entry.ratio_at_high), Cell(entry.swing())});
    }
    frames.push_back(std::move(frame));
  }
  if (result.monte_carlo) {
    const MonteCarloResult& mc = *result.monte_carlo;
    ResultFrame frame;
    frame.name = "montecarlo_summary";
    frame.columns = {Column{.name = "samples", .unit = "", .precision = 6},
                     Column{.name = "mean ratio", .unit = "", .precision = 4},
                     Column{.name = "stddev", .unit = "", .precision = 4},
                     Column{.name = "p05", .unit = "", .precision = 4},
                     Column{.name = "p50", .unit = "", .precision = 4},
                     Column{.name = "p95", .unit = "", .precision = 4},
                     Column{.name = "FPGA win fraction", .unit = "", .precision = 4}};
    frame.add_row({Cell(static_cast<double>(mc.samples)), Cell(mc.mean), Cell(mc.stddev),
                   Cell(mc.p05), Cell(mc.p50), Cell(mc.p95), Cell(mc.fpga_win_fraction)});
    frames.push_back(std::move(frame));
  }
}

}  // namespace

const KindModule& sensitivity_module() {
  static const KindModule module{
      .kind = ScenarioKind::sensitivity,
      .name = "sensitivity",
      .summary = "tornado + Monte-Carlo over parameter ranges",
      .spec_keys = kSpecKeys,
      .seed_defaults = seed_defaults,
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
