/// \file custom_scenario.cpp
/// Authoring scenarios against the unified engine API.
///
/// Demonstrates the three layers of the new evaluation surface:
///   1. a declarative `ScenarioSpec` built in code (the same shape
///      `greenfpga run <spec.json>` loads from disk),
///   2. a custom platform registered by name in a `PlatformRegistry`
///      (here: a hypothetical chiplet-era FPGA on a newer node),
///   3. `Engine::run` with an explicit thread count, and the JSON
///      round-trip used to persist the spec for later runs.
///
/// Build target: example_custom_scenario.

#include <iostream>

#include "greenfpga.hpp"

int main() {
  using namespace greenfpga;

  // 1. A declarative sweep: how does the verdict move with N_app when the
  //    deployment only ships 200k units?
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, device::Domain::dnn);
  spec.name = "dnn sweep at 200k units";
  spec.schedule.volume = 2e5;
  spec.axes = {
      scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 12, 12)};

  // 2. A custom platform, registered by name: the DNN FPGA retargeted to
  //    5 nm (scenario::retarget_to_node applies the documented first-order
  //    area/power scaling rules).  Any spec naming "fpga-5nm" now resolves
  //    to it -- no engine changes required.
  device::PlatformRegistry registry = device::PlatformRegistry::with_builtins();
  registry.add("fpga-5nm", [](device::Domain domain) {
    return scenario::retarget_to_node(device::domain_testcase(domain).fpga,
                                      tech::ProcessNode::n5);
  });
  spec.platforms = {scenario::PlatformRef{.name = "asic"},
                    scenario::PlatformRef{.name = "fpga"},
                    scenario::PlatformRef{.name = "fpga-5nm"}};

  // 3. Run it.  Grid/sweep points execute in parallel; results are
  //    bit-identical for any thread count.
  const scenario::Engine engine(
      scenario::EngineOptions{.threads = 4, .registry = &registry});
  const scenario::ScenarioResult result = engine.run(spec);

  std::cout << "== " << result.spec.name << " ==\n";
  std::cout << "point  " << result.platform_names[0] << " [t]   "
            << result.platform_names[1] << " [t]   " << result.platform_names[2]
            << " [t]\n";
  for (const scenario::EvalPoint point : result.points) {
    std::cout << point.coords[0];
    for (std::size_t i = 0; i < point.platforms.size(); ++i) {
      std::cout << "\t"
                << units::format_significant(
                       point.platforms[i].total.total().in(units::unit::t_co2e), 5);
    }
    std::cout << "\n";
  }

  // The 5 nm retarget beats the 10 nm FPGA on both embodied and
  // operational carbon, so its curve sits strictly below.
  const double last_fpga = result.points.back().ratio(1);
  const double last_5nm = result.points.back().ratio(2);
  std::cout << "\nat N_app = 12: fpga:asic " << units::format_significant(last_fpga, 4)
            << ", fpga-5nm:asic " << units::format_significant(last_5nm, 4) << "\n";

  // Persist the spec: the JSON written here loads back byte-identically
  // with `greenfpga run` (platform names resolve against the *builtin*
  // registry there, so ship custom chips inline via the "chip" field).
  std::cout << "\nspec JSON:\n" << scenario::spec_to_json(spec).dump() << "\n";
  return 0;
}
