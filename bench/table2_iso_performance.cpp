/// Reproduces Table 2: the iso-performance FPGA testcases -- area and
/// power normalised to the ASIC for each domain -- and shows the derived
/// 10 nm device pairs plus their per-chip embodied CFP consequences.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_reproduction() {
  bench::banner("Table 2", "FPGA testcases at iso-performance with the ASIC [12]");

  io::TextTable ratios;
  ratios.set_headers({"testcase", "DNN", "ImgProc", "Crypto"});
  ratios.add_row({"Area (normalized to ASIC)", "4", "7.42", "1"});
  ratios.add_row({"Power (normalized to ASIC)", "3", "1.25", "1"});
  std::cout << ratios.render() << "\n";

  io::TextTable derived;
  derived.set_headers({"domain", "chip", "die area", "peak power", "per-chip embodied"});
  const core::LifecycleModel model(core::paper_suite());
  for (const device::Domain domain : device::all_domains()) {
    const device::DomainTestcase testcase = device::domain_testcase(domain);
    for (const device::ChipSpec* chip : {&testcase.asic, &testcase.fpga}) {
      const core::CfpBreakdown embodied = model.per_chip_embodied(*chip);
      derived.add_row({to_string(domain), chip->is_fpga() ? "FPGA" : "ASIC",
                       units::format_area(chip->die_area),
                       units::format_power(chip->peak_power),
                       units::format_carbon(embodied.total())});
    }
  }
  std::cout << "derived 10 nm testcase devices (calibrated bases, DESIGN.md §4):\n"
            << derived.render();

  io::TextTable penalty;
  penalty.set_headers({"domain", "area ratio", "embodied ratio (with yield)"});
  for (const device::Domain domain : device::all_domains()) {
    const device::DomainTestcase testcase = device::domain_testcase(domain);
    const double area_ratio =
        testcase.fpga.die_area.canonical() / testcase.asic.die_area.canonical();
    const double embodied_ratio = model.per_chip_embodied(testcase.fpga).total().canonical() /
                                  model.per_chip_embodied(testcase.asic).total().canonical();
    penalty.add_row({to_string(domain), units::format_significant(area_ratio, 4),
                     units::format_significant(embodied_ratio, 4)});
  }
  std::cout << "\nyield makes the embodied penalty super-linear in the area ratio:\n"
            << penalty.render();
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
