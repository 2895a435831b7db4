/// \file frontier_spec.cpp
/// FrontierSpec validation and canonical JSON round-trip.

#include "dse/frontier_spec.hpp"

#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "core/spacing.hpp"
#include "workload/application.hpp"

namespace greenfpga::dse {

namespace {

using io::Json;

void write_axis(io::JsonWriter& out, const FrontierAxisSpec& axis) {
  out.begin_object();
  if (axis.variable == FrontierVariable::node) {
    out.key("nodes");
    out.begin_array();
    for (const tech::ProcessNode node : axis.nodes) {
      out.string(tech::to_string(node));
    }
    out.end_array();
  } else if (axis.scale == FrontierAxisScale::list) {
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

FrontierAxisSpec frontier_axis_from_json(const Json& json, const std::string& context) {
  core::check_known_keys(json, context,
                         {"variable", "scale", "from", "to", "count", "values", "nodes"});
  FrontierAxisSpec axis;
  const std::string variable =
      core::string_field_or(json, context, "variable", "app_count");
  const auto parsed_variable = parse_frontier_variable(variable);
  if (!parsed_variable) {
    throw core::ConfigError(context + ": unknown axis variable \"" + variable +
                            "\" (app_count, lifetime_years, volume, node)");
  }
  axis.variable = *parsed_variable;
  if (axis.variable == FrontierVariable::node) {
    for (const std::string_view key : {"scale", "from", "to", "count", "values"}) {
      if (json.contains(key)) {
        throw core::ConfigError(context + ": a node axis takes a \"nodes\" list, not \"" +
                                std::string(key) + "\"");
      }
    }
    if (json.contains("nodes")) {
      for (const std::string& name : core::strings_field(json, context, "nodes")) {
        const auto node = tech::parse_node(name);
        if (!node) {
          throw core::ConfigError(context + ": unknown process node \"" + name + "\"");
        }
        axis.nodes.push_back(*node);
      }
    }
    return axis;
  }
  if (json.contains("nodes")) {
    throw core::ConfigError(context + ": \"nodes\" needs \"variable\": \"node\"");
  }
  const std::string scale =
      core::string_field_or(json, context, "scale",
                            json.contains("values") ? "list" : "linear");
  if (scale == "list") {
    axis.scale = FrontierAxisScale::list;
    if (!json.contains("values")) {
      throw core::ConfigError(context + ": list axis needs a \"values\" array");
    }
    axis.explicit_values = core::numbers_field(json, context, "values");
  } else if (scale == "linear" || scale == "log") {
    axis.scale = scale == "linear" ? FrontierAxisScale::linear : FrontierAxisScale::log;
    if (!json.contains("from") || !json.contains("to") || !json.contains("count")) {
      throw core::ConfigError(context + ": " + scale +
                              " axis needs \"from\", \"to\" and \"count\"");
    }
    axis.from = core::number_field(json, context, "from");
    axis.to = core::number_field(json, context, "to");
    axis.count =
        static_cast<int>(core::int_field_ctx(json, context, "count", 0, 2, 1'000'000));
  } else {
    throw core::ConfigError(context + ": unknown axis scale \"" + scale + "\"");
  }
  return axis;
}

}  // namespace

std::string to_string(FrontierVariable variable) {
  switch (variable) {
    case FrontierVariable::app_count:
      return "app_count";
    case FrontierVariable::lifetime_years:
      return "lifetime_years";
    case FrontierVariable::volume:
      return "volume";
    case FrontierVariable::node:
      return "node";
  }
  return "unknown";
}

std::optional<FrontierVariable> parse_frontier_variable(std::string_view text) {
  if (text == "app_count" || text == "apps") return FrontierVariable::app_count;
  if (text == "lifetime_years" || text == "lifetime") {
    return FrontierVariable::lifetime_years;
  }
  if (text == "volume") return FrontierVariable::volume;
  if (text == "node" || text == "nodes") return FrontierVariable::node;
  return std::nullopt;
}

std::string to_string(FrontierObjective objective) {
  switch (objective) {
    case FrontierObjective::total:
      return "total";
    case FrontierObjective::embodied:
      return "embodied";
    case FrontierObjective::operational:
      return "operational";
  }
  return "unknown";
}

std::optional<FrontierObjective> parse_frontier_objective(std::string_view text) {
  if (text == "total") return FrontierObjective::total;
  if (text == "embodied") return FrontierObjective::embodied;
  if (text == "operational") return FrontierObjective::operational;
  return std::nullopt;
}

std::string to_string(FrontierAxisScale scale) {
  switch (scale) {
    case FrontierAxisScale::list:
      return "list";
    case FrontierAxisScale::linear:
      return "linear";
    case FrontierAxisScale::log:
      return "log";
  }
  return "unknown";
}

std::vector<tech::ProcessNode> FrontierAxisSpec::materialised_nodes() const {
  if (variable != FrontierVariable::node) {
    throw std::logic_error("FrontierAxisSpec: not a node axis");
  }
  if (!nodes.empty()) {
    return nodes;
  }
  const std::span<const tech::ProcessNode> all = tech::all_nodes();
  return {all.begin(), all.end()};
}

std::vector<double> FrontierAxisSpec::values() const {
  if (variable == FrontierVariable::node) {
    std::vector<double> out;
    for (const tech::ProcessNode node : materialised_nodes()) {
      out.push_back(static_cast<double>(static_cast<std::int16_t>(node)));
    }
    return out;
  }
  switch (scale) {
    case FrontierAxisScale::list:
      if (explicit_values.empty()) {
        throw std::invalid_argument(
            "FrontierAxisSpec: list axis needs at least one value");
      }
      return explicit_values;
    case FrontierAxisScale::linear:
      return core::linspace(from, to, count);
    case FrontierAxisScale::log:
      return core::logspace(from, to, count);
  }
  throw std::logic_error("FrontierAxisSpec: unknown scale");
}

std::string FrontierAxisSpec::label() const {
  switch (variable) {
    case FrontierVariable::app_count:
      return "N_app";
    case FrontierVariable::lifetime_years:
      return "T_i [years]";
    case FrontierVariable::volume:
      return "N_vol [units]";
    case FrontierVariable::node:
      return "node [nm]";
  }
  return "x";
}

FrontierAxisSpec FrontierAxisSpec::list(FrontierVariable variable,
                                        std::vector<double> values) {
  FrontierAxisSpec axis;
  axis.variable = variable;
  axis.scale = FrontierAxisScale::list;
  axis.explicit_values = std::move(values);
  return axis;
}

FrontierAxisSpec FrontierAxisSpec::linear(FrontierVariable variable, double from,
                                          double to, int count) {
  FrontierAxisSpec axis;
  axis.variable = variable;
  axis.scale = FrontierAxisScale::linear;
  axis.from = from;
  axis.to = to;
  axis.count = count;
  return axis;
}

FrontierAxisSpec FrontierAxisSpec::log(FrontierVariable variable, double from, double to,
                                       int count) {
  FrontierAxisSpec axis;
  axis.variable = variable;
  axis.scale = FrontierAxisScale::log;
  axis.from = from;
  axis.to = to;
  axis.count = count;
  return axis;
}

FrontierAxisSpec FrontierAxisSpec::node_list(std::vector<tech::ProcessNode> nodes) {
  FrontierAxisSpec axis;
  axis.variable = FrontierVariable::node;
  axis.nodes = std::move(nodes);
  return axis;
}

void FrontierSpec::validate() const {
  if (axes.size() < 2 || axes.size() > 4) {
    throw std::invalid_argument("FrontierSpec: needs 2-4 axes, got " +
                                std::to_string(axes.size()));
  }
  int node_axes = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const FrontierAxisSpec& axis = axes[a];
    for (std::size_t b = 0; b < a; ++b) {
      if (axes[b].variable == axis.variable) {
        throw std::invalid_argument("FrontierSpec: duplicate axis over " +
                                    to_string(axis.variable));
      }
    }
    if (axis.variable == FrontierVariable::node) {
      ++node_axes;
      continue;
    }
    if (axis.scale == FrontierAxisScale::list) {
      if (axis.explicit_values.empty()) {
        throw std::invalid_argument("FrontierSpec: axis " + to_string(axis.variable) +
                                    " has no values");
      }
      for (const double v : axis.explicit_values) {
        if (!(v > 0.0)) {
          throw std::invalid_argument("FrontierSpec: axis " + to_string(axis.variable) +
                                      " values must be positive");
        }
      }
    } else {
      if (axis.count < 2) {
        throw std::invalid_argument("FrontierSpec: axis " + to_string(axis.variable) +
                                    " needs count >= 2 samples");
      }
      if (axis.from <= 0.0 || axis.to <= 0.0) {
        throw std::invalid_argument("FrontierSpec: axis " + to_string(axis.variable) +
                                    " needs positive bounds");
      }
    }
    if (axis.variable == FrontierVariable::app_count) {
      // Each cell builds lround(value) applications.
      workload::check_app_count_axis(axis.values(), "FrontierSpec: ");
    }
  }
  if (node_axes > 1) {
    throw std::invalid_argument("FrontierSpec: at most one node axis");
  }
  if (confidence_samples < 0) {
    throw std::invalid_argument("FrontierSpec: confidence_samples must be >= 0");
  }
}

FrontierSpec frontier_spec_from_json(const io::Json& json, const std::string& context,
                                     FrontierSpec defaults) {
  core::check_known_keys(json, context,
                         {"axes", "objective", "confidence_samples", "seed"});
  FrontierSpec spec = std::move(defaults);
  if (json.contains("axes")) {
    spec.axes.clear();
    for (const Json& entry : json.at("axes").as_array()) {
      spec.axes.push_back(frontier_axis_from_json(entry, context + ".axes"));
    }
  }
  const std::string objective =
      core::string_field_or(json, context, "objective", to_string(spec.objective));
  const auto parsed = parse_frontier_objective(objective);
  if (!parsed) {
    throw core::ConfigError(context + ": unknown objective \"" + objective +
                            "\" (total, embodied, operational)");
  }
  spec.objective = *parsed;
  spec.confidence_samples = static_cast<int>(core::int_field_ctx(
      json, context, "confidence_samples", spec.confidence_samples, 0, 1'000'000));
  spec.seed = static_cast<unsigned>(
      core::int_field_ctx(json, context, "seed", spec.seed, 0, 4294967295LL));
  return spec;
}

}  // namespace greenfpga::dse

namespace greenfpga::core {

void write_json(io::JsonWriter& out, const dse::FrontierSpec& spec) {
  out.begin_object();
  out.key("axes");
  out.begin_array();
  for (const dse::FrontierAxisSpec& axis : spec.axes) {
    dse::write_axis(out, axis);
  }
  out.end_array();
  out.number("confidence_samples", spec.confidence_samples);
  out.string("objective", to_string(spec.objective));
  out.number("seed", spec.seed);
  out.end_object();
}

}  // namespace greenfpga::core
