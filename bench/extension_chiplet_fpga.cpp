/// Extension bench: chiplet-built FPGAs (the ECO-CHIP tradeoff inside
/// GreenFPGA).
///
/// The paper's predecessor (ECO-CHIP, HPCA'24) showed that splitting large
/// dies into chiplets cuts embodied carbon through yield, at the price of
/// interposer silicon and bonding.  Big FPGAs are exactly such dies -- and
/// real flagships (Stratix 10 / Agilex) ship as chiplets.  This bench
/// splits the paper's 600 mm^2 DNN iso-FPGA into 1-8 chiplets across the
/// advanced package styles and shows the effect on per-chip embodied CFP
/// and on the Fig. 4 crossover.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "device/platform_registry.hpp"
#include "io/table.hpp"
#include "scenario/engine.hpp"
#include "scenario/sweep.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

pkg::PackageParameters style(pkg::PackageType type) {
  pkg::PackageParameters p;
  p.type = type;
  return p;
}

void print_split_table() {
  const core::LifecycleModel model(core::paper_suite());
  const device::ChipSpec fpga = device::domain_testcase(device::Domain::dnn).fpga;
  const double monolithic = model.per_chip_embodied(fpga).total().canonical();

  io::TextTable table;
  table.set_headers({"construction", "dies", "die yield", "silicon [kg]", "package [kg]",
                     "total [kg]", "vs monolithic"});
  table.add_row({"monolithic", "1",
                 units::format_significant(model.fab_model().yield(fpga.node, fpga.die_area), 3),
                 units::format_significant(
                     model.per_chip_embodied(fpga).manufacturing.canonical(), 4),
                 units::format_significant(model.per_chip_embodied(fpga).packaging.canonical(), 4),
                 units::format_significant(monolithic, 4), "1"});
  for (const pkg::PackageType type :
       {pkg::PackageType::silicon_interposer, pkg::PackageType::emib}) {
    for (const int dies : {2, 4, 8}) {
      const core::CfpBreakdown split =
          model.per_chip_embodied_chiplet(fpga, dies, style(type));
      const double per_die_yield = model.fab_model().yield(
          fpga.node, fpga.die_area / static_cast<double>(dies));
      table.add_row({to_string(type), std::to_string(dies),
                     units::format_significant(per_die_yield, 3),
                     units::format_significant(split.manufacturing.canonical(), 4),
                     units::format_significant(split.packaging.canonical(), 4),
                     units::format_significant(split.total().canonical(), 4),
                     units::format_significant(split.total().canonical() / monolithic, 3)});
    }
  }
  // The sweet spot ships as the registry's first-class "chiplet_fpga"
  // platform: per_chip_embodied dispatches on its chiplet_count.
  const device::ChipSpec registry_chiplet =
      device::PlatformRegistry::builtins().resolve("chiplet_fpga", device::Domain::dnn);
  const core::CfpBreakdown registry_split = model.per_chip_embodied(registry_chiplet);
  table.add_row({"registry chiplet_fpga (" + registry_chiplet.chiplet_package + ")",
                 std::to_string(registry_chiplet.chiplet_count),
                 units::format_significant(
                     model.fab_model().yield(
                         registry_chiplet.node,
                         registry_chiplet.die_area /
                             static_cast<double>(registry_chiplet.chiplet_count)),
                     3),
                 units::format_significant(registry_split.manufacturing.canonical(), 4),
                 units::format_significant(registry_split.packaging.canonical(), 4),
                 units::format_significant(registry_split.total().canonical(), 4),
                 units::format_significant(registry_split.total().canonical() / monolithic,
                                           3)});
  std::cout << "600 mm^2 DNN iso-FPGA, chiplet constructions (per chip):\n"
            << table.render() << "\n";
}

void print_crossover_effect() {
  // The schedule-level effect through the unified engine: sweep the app
  // count for asic-vs-fpga and asic-vs-chiplet_fpga (the registry
  // platform -- no hand-adjusted series) and compare the A2F crossover.
  const auto a2f_for = [](const std::string& platform) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, device::Domain::dnn);
    spec.name = "asic vs " + platform + " app sweep";
    spec.axes = {
        scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 12, 12)};
    spec.platforms = {scenario::PlatformRef{.name = "asic", .chip = std::nullopt},
                      scenario::PlatformRef{.name = platform, .chip = std::nullopt}};
    const scenario::Engine engine;
    return first_crossover(engine.run(spec).sweep_series().crossovers(),
                           scenario::CrossoverKind::a2f);
  };
  const auto base_a2f = a2f_for("fpga");
  const auto chiplet_a2f = a2f_for("chiplet_fpga");

  io::TextTable table;
  table.set_headers({"FPGA construction", "DNN A2F crossover [apps]"});
  table.add_row({"monolithic (registry fpga)",
                 base_a2f ? units::format_significant(*base_a2f, 4) : std::string("none")});
  table.add_row({"registry chiplet_fpga",
                 chiplet_a2f ? units::format_significant(*chiplet_a2f, 4)
                             : std::string("none")});
  std::cout << "crossover effect of chiplet construction:\n" << table.render();
}

void print_reproduction() {
  bench::banner("Extension", "chiplet-built FPGAs: yield savings vs package overhead");
  print_split_table();
  print_crossover_effect();
  std::cout << "\nreading: splitting the big FPGA die recovers yield losses and pulls\n"
               "the A2F crossover in -- reconfigurability and chiplets compound\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
