/// \file node_dse.cpp
/// The node_dse kind: fabrication-node design-space exploration of one
/// subject device.

#include <span>
#include <stdexcept>
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

constexpr std::string_view kAliases[] = {"nodes"};
constexpr std::string_view kSpecKeys[] = {"dse"};
constexpr std::string_view kResultKeys[] = {"candidates"};

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  out.key("dse");
  out.begin_object();
  if (spec.dse.chip) {
    out.key("chip");
    core::write_json(out, *spec.dse.chip);
  }
  out.key("nodes");
  out.begin_array();
  for (const tech::ProcessNode node : spec.dse.nodes) {
    out.string(tech::to_string(node));
  }
  out.end_array();
  out.end_object();
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("dse")) {
    return;
  }
  const Json& entry = json.at("dse");
  core::check_known_keys(entry, "dse", {"chip", "nodes"});
  DseSpec dse;
  if (entry.contains("chip")) {
    dse.chip = core::chip_from_json(entry.at("chip"));
  }
  if (entry.contains("nodes")) {
    for (const std::string& name : core::strings_field(entry, "dse", "nodes")) {
      const auto node = tech::parse_node(name);
      if (!node) {
        throw core::ConfigError("unknown process node \"" + name + "\"");
      }
      dse.nodes.push_back(*node);
    }
  }
  spec.dse = std::move(dse);
}

/// node_dse explores ONE subject device across nodes (the domain FPGA by
/// default); every other kind defaults to the paper's ASIC/FPGA
/// head-to-head.
std::vector<PlatformRef> default_platforms() {
  return {PlatformRef{.name = "fpga", .chip = std::nullopt}};
}

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  // The subject is dse.chip when pinned, else the spec's single platform
  // (prepare() defaults an empty list to {"fpga"}).  More than one
  // platform is a shape error: a node DSE ranks retargets of ONE device.
  if (!spec.dse.chip && result.resolved_chips.size() != 1) {
    std::string got;
    for (const std::string& name : result.platform_names) {
      got += got.empty() ? name : ", " + name;
    }
    throw std::invalid_argument(
        "Engine: node_dse scenarios explore one subject platform (or an explicit "
        "dse.chip), got {" +
        got + "}");
  }
  const device::ChipSpec subject =
      spec.dse.chip ? *spec.dse.chip : result.resolved_chips.front();
  const std::span<const tech::ProcessNode> nodes =
      spec.dse.nodes.empty() ? tech::all_nodes()
                             : std::span<const tech::ProcessNode>(spec.dse.nodes);
  const workload::Schedule schedule = spec.schedule.materialise(spec.domain);

  // Retarget serially (cheap, and infeasible nodes are simply skipped),
  // then evaluate the surviving candidates on the pool.
  std::vector<device::ChipSpec> retargeted;
  retargeted.reserve(nodes.size());
  for (const tech::ProcessNode node : nodes) {
    try {
      retargeted.push_back(retarget_to_node(subject, node));
    } catch (const std::invalid_argument&) {
      continue;  // does not fit the reticle on this node
    }
  }
  result.candidates.resize(retargeted.size());
  parallel_for(retargeted.size(), context.threads, suite,
               [&](core::LifecycleModel& model, std::size_t i) {
                 result.candidates[i] =
                     evaluate_node_candidate(model, schedule, retargeted[i]);
               });
  rank_node_candidates(result.candidates);  // throws when nothing fits a reticle
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int /*threads*/) {
  if (result.candidates.empty()) {
    return;
  }
  out.key("candidates");
  out.begin_array();
  for (const NodeCandidate& candidate : result.candidates) {
    out.begin_object();
    out.key("chip");
    core::write_json(out, candidate.chip);
    out.key("lifecycle");
    core::write_json(out, candidate.lifecycle);
    out.number("total_vs_best", candidate.total_vs_best);
    out.end_object();
  }
  out.end_array();
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (!json.contains("candidates")) {
    return;
  }
  for (const Json& entry : json.at("candidates").as_array()) {
    core::check_known_keys(entry, "result candidate",
                           {"chip", "lifecycle", "total_vs_best"});
    NodeCandidate candidate;
    candidate.chip = core::chip_from_json(entry.at("chip"));
    candidate.lifecycle = core::breakdown_from_json(entry.at("lifecycle"));
    candidate.total_vs_best = entry.at("total_vs_best").as_number_total();
    result.candidates.push_back(std::move(candidate));
  }
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  ResultFrame frame;
  frame.name = "nodes";
  frame.columns = {Column{.name = "rank", .unit = "", .precision = 4},
                   Column{.name = "node", .unit = "", .precision = 4},
                   Column{.name = "die area", .unit = "mm^2", .precision = 4},
                   Column{.name = "peak power", .unit = "W", .precision = 4},
                   Column{.name = "total", .unit = "t CO2e", .precision = 5},
                   Column{.name = "vs best", .unit = "", .precision = 4}};
  double rank = 1.0;
  for (const NodeCandidate& candidate : result.candidates) {
    frame.add_row({Cell(rank), Cell(tech::to_string(candidate.chip.node)),
                   Cell(candidate.chip.die_area.in(units::unit::mm2)),
                   Cell(candidate.chip.peak_power.in(units::unit::w)),
                   Cell(candidate.total().in(units::unit::t_co2e)),
                   Cell(candidate.total_vs_best)});
    rank += 1.0;
  }
  frames.push_back(std::move(frame));
}

}  // namespace

const KindModule& node_dse_module() {
  static const KindModule module{
      .kind = ScenarioKind::node_dse,
      .name = "node_dse",
      .aliases = kAliases,
      .summary = "fabrication-node design-space exploration",
      .spec_keys = kSpecKeys,
      .write_params = write_params,
      .parse_params = parse_params,
      .default_platforms = default_platforms,
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
