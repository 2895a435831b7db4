/// Example: planning a DNN edge-accelerator fleet.
///
/// A product team ships an edge inference accelerator into ~1M consumer
/// devices.  Models are retrained and re-architected often, so the
/// silicon is expected to be re-targeted every 18 months.  Should the
/// team tape out ASICs per generation, or deploy a reconfigurable FPGA
/// fleet?
///
/// The program walks the decision the way the paper does: sweep the
/// model-generation lifetime, sweep the fleet size, find the crossovers,
/// then inspect the component breakdown at the chosen operating point.

#include <iostream>

#include "core/comparator.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "scenario/engine.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

int main() {
  using namespace greenfpga;
  using namespace units::unit;

  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);

  // Each question is a sweep-kind spec varying one variable around the
  // planned operating point: 5 generations x 18 months x 1M units.
  const auto sweep = [](scenario::AxisSpec axis) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, device::Domain::dnn);
    spec.schedule.app_count = 5;
    spec.schedule.lifetime_years = 1.5;
    spec.schedule.volume = 1e6;
    spec.axes = {std::move(axis)};
    return scenario::Engine().run(spec).sweep_series();
  };

  std::cout << "DNN edge fleet planning\n"
            << "=======================\n"
            << "device pair: " << testcase.asic.name << " ("
            << units::format_area(testcase.asic.die_area) << ", "
            << units::format_power(testcase.asic.peak_power) << ")  vs  "
            << testcase.fpga.name << " ("
            << units::format_area(testcase.fpga.die_area) << ", "
            << units::format_power(testcase.fpga.peak_power) << ")\n\n";

  // Question 1: how short do model generations have to be before the FPGA
  // wins?  (Five generations planned, 1M units.)
  const scenario::SweepSeries lifetime_sweep =
      sweep(scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.5, 3.0, 11));
  std::cout << "Q1: CFP vs model-generation lifetime (5 generations, 1M units)\n"
            << report::sweep_table(lifetime_sweep)
            << "    " << report::crossover_summary(lifetime_sweep) << "\n\n";

  // Question 2: at an 18-month cadence, how many generations until the
  // FPGA fleet pays back its embodied premium?
  const scenario::SweepSeries generation_sweep =
      sweep(scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 10, 10));
  std::cout << "Q2: CFP vs number of generations (18-month cadence, 1M units)\n"
            << report::sweep_table(generation_sweep)
            << "    " << report::crossover_summary(generation_sweep) << "\n\n";

  // Question 3: does the answer survive a bigger fleet?
  const scenario::SweepSeries volume_sweep =
      sweep(scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e4, 1e7, 13));
  std::cout << "Q3: CFP vs fleet size (5 generations, 18-month cadence)\n"
            << report::sweep_table(volume_sweep)
            << "    " << report::crossover_summary(volume_sweep) << "\n\n";

  // Operating point: 5 generations x 18 months x 1M units.
  const core::Comparison decision = core::compare(
      model, testcase, core::paper_schedule(device::Domain::dnn, 5, 1.5 * years, 1e6));
  const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
      {"ASIC path", decision.asic.total},
      {"FPGA path", decision.fpga.total},
  };
  std::cout << "Decision point: 5 generations, 18 months each, 1M units\n"
            << report::breakdown_table(platforms)
            << "verdict: " << to_string(decision.verdict()) << " (ratio "
            << units::format_significant(decision.ratio(), 3) << ")\n\n"
            << "Reading: the ASIC path re-pays design + silicon every generation;\n"
            << "the FPGA path pays embodied carbon once and ~3x operating power.\n"
            << "At an 18-month cadence the FPGA fleet is the greener choice.\n";
  return 0;
}
