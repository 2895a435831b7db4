/// Reproduces Table 3: the industry testcase specifications (Moffett
/// Antoum-, TPU-, Agilex 7- and Stratix 10-class devices), extended with
/// the model's derived per-chip quantities (yield, embodied CFP, package
/// mass) that feed Figs. 10-11.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_reproduction() {
  bench::banner("Table 3", "industry testcases [30, 34-36]");

  const std::vector<device::ChipSpec> chips{
      device::industry_asic1(),
      device::industry_asic2(),
      device::industry_fpga1(),
      device::industry_fpga2(),
  };

  io::TextTable table;
  table.set_headers({"testcase", "area", "power", "tech. node"});
  for (const device::ChipSpec& chip : chips) {
    table.add_row({chip.name, units::format_area(chip.die_area),
                   units::format_power(chip.peak_power), tech::to_string(chip.node)});
  }
  std::cout << table.render() << "\n";

  const core::LifecycleModel model(core::industry_suite());
  io::TextTable derived;
  derived.set_headers(
      {"testcase", "die yield", "mfg CFP/chip", "pkg CFP/chip", "pkg mass", "design CFP"});
  for (const device::ChipSpec& chip : chips) {
    const double yield = model.fab_model().yield(chip.node, chip.die_area);
    const core::CfpBreakdown embodied = model.per_chip_embodied(chip);
    const units::Mass mass = model.package_model().package_mass(chip.die_area);
    derived.add_row({chip.name, units::format_significant(yield, 3),
                     units::format_carbon(embodied.manufacturing),
                     units::format_carbon(embodied.packaging),
                     units::format_significant(mass.in(g), 3) + " g",
                     units::format_carbon(model.design_model().design_carbon(chip))});
  }
  std::cout << "derived per-chip quantities (datacenter suite):\n" << derived.render();
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
