/// \file common.cpp
/// Shared kind-module machinery (see common.hpp).

#include "scenario/kinds/common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "units/format.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

/// Apply one axis coordinate to the homogeneous schedule fields.
void apply_axis(ScheduleSpec& schedule, SweepVariable variable, double value) {
  switch (variable) {
    case SweepVariable::app_count:
      schedule.app_count = static_cast<int>(std::llround(value));
      return;
    case SweepVariable::lifetime_years:
      schedule.lifetime_years = value;
      return;
    case SweepVariable::volume:
      schedule.volume = value;
      return;
  }
  throw std::logic_error("Engine: unknown sweep variable");
}

}  // namespace

PointPlan plan_points(const ScenarioSpec& spec) {
  PointPlan plan;
  plan.axis_values.reserve(spec.axes.size());
  for (const AxisSpec& axis : spec.axes) {
    plan.axis_values.push_back(axis.values());
    plan.total *= plan.axis_values.back().size();
  }
  plan.keep_per_application =
      spec.kind == ScenarioKind::compare || spec.outputs.per_application;
  return plan;
}

void evaluate_point(const ScenarioSpec& spec, const PointPlan& plan,
                    const std::vector<device::ChipSpec>& chips,
                    core::LifecycleModel& model, ScheduleBuffer& schedule, std::size_t i,
                    EvalPoint& point) {
  ScheduleSpec schedule_spec = spec.schedule;
  std::size_t remainder = i;
  point.coords.reserve(plan.axis_values.size());
  for (const std::vector<double>& values : plan.axis_values) {
    const double value = values[remainder % values.size()];
    remainder /= values.size();
    point.coords.push_back(value);
  }
  for (std::size_t a = 0; a < plan.axis_values.size(); ++a) {
    apply_axis(schedule_spec, spec.axes[a].variable, point.coords[a]);
  }
  const workload::Schedule& applications = schedule.assign(schedule_spec, spec.domain);
  const core::ApplicationRows rows = plan.keep_per_application
                                         ? core::ApplicationRows::keep
                                         : core::ApplicationRows::skip;
  point.platforms.reserve(chips.size());
  for (const device::ChipSpec& chip : chips) {
    point.platforms.push_back(model.evaluate(chip, applications, rows));
  }
}

void points_execute(const KindRunContext& context, const core::ModelSuite& suite,
                    ScenarioResult& result) {
  // Coordinate grid: axis 0 is the inner (fastest) dimension.
  const PointPlan plan = plan_points(result.spec);
  result.points.resize(plan.total);
  struct Worker {
    core::LifecycleModel model;
    ScheduleBuffer schedule;
  };
  core::parallel_for_state(
      plan.total, context.threads,
      [&suite] { return Worker{.model = core::LifecycleModel(suite), .schedule = {}}; },
      [&](Worker& worker, std::size_t i) {
        evaluate_point(result.spec, plan, result.resolved_chips, worker.model,
                       worker.schedule, i, result.points[i]);
      },
      result.resolved_chips.size());
}

void reduce_montecarlo(MonteCarloUq& uq) {
  const std::size_t platforms = uq.sample_totals_kg.size();
  const std::size_t samples = uq.sample_totals_kg.front().size();
  uq.platform_total.reserve(platforms);
  for (std::size_t p = 0; p < platforms; ++p) {
    uq.platform_total.push_back(summarise_samples(uq.sample_totals_kg[p], uq.percentiles));
  }
  for (std::size_t p = 1; p < platforms; ++p) {
    const std::vector<double> ratios = uq.ratio_samples(p);
    std::size_t wins = 0;
    for (const double r : ratios) {
      if (r < 1.0) {
        ++wins;
      }
    }
    uq.win_fraction.push_back(static_cast<double>(wins) / static_cast<double>(samples));
    uq.ratio.push_back(summarise_samples(ratios, uq.percentiles));
  }
}

device::DomainTestcase testcase_of(const ScenarioResult& result,
                                   const std::string& kind_name) {
  const auto asic = result.platform_index(device::ChipKind::asic);
  const auto fpga = result.platform_index(device::ChipKind::fpga);
  if (!asic || !fpga || result.resolved_chips.size() != 2) {
    std::string got;
    for (const std::string& name : result.platform_names) {
      got += got.empty() ? name : ", " + name;
    }
    throw std::invalid_argument("Engine: " + kind_name +
                                " scenarios need exactly one ASIC and one FPGA "
                                "platform, got {" +
                                got + "}");
  }
  return device::DomainTestcase{.domain = result.spec.domain,
                                .asic = result.resolved_chips[*asic],
                                .fpga = result.resolved_chips[*fpga]};
}

void require_homogeneous_schedule(const ScenarioSpec& spec) {
  if (spec.schedule.explicit_schedule) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name + "': kind " +
                                to_string(spec.kind) +
                                " uses the homogeneous schedule fields, not an explicit "
                                "application list");
  }
}

void validate_spec_distributions(const ScenarioSpec& spec) {
  const std::vector<ParameterRange>& known = table1_ranges();
  std::vector<std::string_view> seen;
  for (const core::ParamDistribution& distribution : spec.montecarlo.distributions) {
    distribution.validate();  // bounds/stddev/mode checks, names the parameter
    const bool found =
        std::any_of(known.begin(), known.end(), [&](const ParameterRange& range) {
          return range.name == distribution.parameter;
        });
    if (!found) {
      throw std::invalid_argument("ScenarioSpec '" + spec.name +
                                  "': unknown distribution parameter \"" +
                                  distribution.parameter + "\" (see table1_ranges)");
    }
    // Duplicates would apply last-writer-wins per sample, silently
    // dropping the earlier entry's uncertainty.
    if (std::find(seen.begin(), seen.end(), distribution.parameter) != seen.end()) {
      throw std::invalid_argument("ScenarioSpec '" + spec.name +
                                  "': duplicate distribution for parameter \"" +
                                  distribution.parameter + "\"");
    }
    seen.push_back(distribution.parameter);
  }
}

std::vector<double> doubles_from_json(const Json& json) {
  std::vector<double> out;
  out.reserve(json.size());
  for (const Json& v : json.as_array()) {
    // Total read: the canonical writer encodes non-finite cells as
    // string sentinels, and result payloads may legitimately carry them
    // (a zero-baseline ratio, an unbounded solve).
    out.push_back(v.as_number_total());
  }
  return out;
}

std::string ratio_label(const ScenarioResult& result, std::size_t index) {
  return result.platform_names[index] + ":" + result.platform_names[0];
}

ResultFrame points_frame(const ScenarioResult& result, const std::string& name) {
  ResultFrame frame;
  frame.name = name;
  for (const AxisSpec& axis : result.spec.axes) {
    frame.columns.push_back(Column{.name = axis.label(), .unit = "", .precision = 4});
  }
  for (const std::string& platform : result.platform_names) {
    frame.columns.push_back(Column{.name = platform, .unit = "t CO2e", .precision = 5});
  }
  for (std::size_t i = 1; i < result.platform_names.size(); ++i) {
    frame.columns.push_back(Column{.name = ratio_label(result, i), .unit = "",
                                   .precision = 4});
  }
  for (const EvalPoint& point : result.points) {
    std::vector<Cell> row;
    row.reserve(frame.columns.size());
    for (const double c : point.coords) {
      row.emplace_back(c);
    }
    for (const core::PlatformCfp& platform : point.platforms) {
      row.emplace_back(platform.total.total().in(units::unit::t_co2e));
    }
    for (std::size_t i = 1; i < point.platforms.size(); ++i) {
      row.emplace_back(point.ratio(i));
    }
    frame.add_row(std::move(row));
  }
  return frame;
}

ResultFrame uncertainty_frame(const ScenarioResult& result) {
  const MonteCarloUq& uq = *result.uncertainty;
  ResultFrame frame;
  frame.name = "uncertainty";
  frame.columns = {Column{.name = "metric", .unit = "", .precision = 5},
                   Column{.name = "mean", .unit = "", .precision = 5},
                   Column{.name = "stddev", .unit = "", .precision = 5}};
  for (const double p : uq.percentiles) {
    std::string name = "p";
    name += units::format_significant(p, 4);
    frame.columns.push_back(Column{.name = std::move(name), .unit = "", .precision = 5});
  }
  const auto add_stat = [&frame](const std::string& metric, const UqStat& stat,
                                 double scale) {
    std::vector<Cell> row{Cell(metric), Cell(stat.mean * scale),
                          Cell(stat.stddev * scale)};
    for (const double v : stat.percentile_values) {
      row.emplace_back(v * scale);
    }
    frame.add_row(std::move(row));
  };
  for (std::size_t p = 0; p < uq.platform_total.size(); ++p) {
    add_stat(result.platform_names[p] + " [t CO2e]", uq.platform_total[p],
             1.0 / kKgPerTonne);
  }
  for (std::size_t k = 0; k < uq.ratio.size(); ++k) {
    add_stat(ratio_label(result, k + 1) + " ratio", uq.ratio[k], 1.0);
  }
  frame.set_meta("Monte-Carlo",
                 std::to_string(uq.samples) + " samples, seed " +
                     std::to_string(result.spec.montecarlo.seed) + ", " +
                     std::to_string(result.spec.montecarlo.distributions.size()) +
                     " uncertain parameter(s)");
  for (std::size_t k = 0; k < uq.win_fraction.size(); ++k) {
    frame.set_meta(ratio_label(result, k + 1) + " verdict",
                   result.platform_names[k + 1] + " beats " + result.platform_names[0] +
                       " in " +
                       units::format_significant(100.0 * uq.win_fraction[k], 4) +
                       " % of samples");
  }
  return frame;
}

}  // namespace greenfpga::scenario::kinds
