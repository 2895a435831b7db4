/// Extension bench: per-area (ACT rule) vs whole-wafer manufacturing
/// accounting.
///
/// ACT-style models charge manufacturing carbon per mm^2 of die; real fabs
/// process whole wafers, so dies that tile a 300 mm wafer poorly (large,
/// reticle-scale FPGAs) carry extra edge-loss carbon.  This bench
/// quantifies the per-die overhead across the repo's devices and shows the
/// effect on the paper's DNN crossover.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "scenario/sweep.hpp"
#include "tech/yield.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_overheads() {
  const act::FabModel fab{core::paper_suite().fab};
  io::TextTable table;
  table.set_headers({"die", "area", "dies/wafer", "per-area CFP", "per-wafer CFP",
                     "edge overhead"});
  const std::vector<device::ChipSpec> chips{
      device::domain_testcase(device::Domain::imgproc).asic,
      device::domain_testcase(device::Domain::dnn).asic,
      device::industry_asic1(),
      device::industry_fpga1(),
      device::industry_fpga2(),
      device::domain_testcase(device::Domain::dnn).fpga,
  };
  for (const device::ChipSpec& chip : chips) {
    const auto per_area = fab.manufacture_die(chip.node, chip.die_area).total();
    const auto per_wafer =
        fab.manufacture_die_wafer_based(chip.node, chip.die_area).total();
    std::string overhead = "+";
    overhead += units::format_significant(
        100.0 * (per_wafer.canonical() / per_area.canonical() - 1.0), 3);
    overhead += " %";
    table.add_row({chip.name, units::format_area(chip.die_area),
                   std::to_string(tech::dies_per_wafer(chip.die_area)),
                   units::format_carbon(per_area), units::format_carbon(per_wafer),
                   std::move(overhead)});
  }
  std::cout << "per-good-die manufacturing CFP under both accounting rules:\n"
            << table.render() << "\n";
}

void print_reproduction() {
  bench::banner("Extension", "wafer-based vs per-area manufacturing accounting");
  print_overheads();
  std::cout << "reading: edge losses add a few percent for small dies but >10 % for\n"
               "reticle-scale FPGAs -- the per-area ACT rule slightly flatters exactly\n"
               "the dies the FPGA sustainability argument depends on\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
