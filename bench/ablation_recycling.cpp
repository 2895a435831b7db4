/// Ablation A3 (DESIGN.md): the two recycling knobs.
///   * rho  -- fraction of fab materials from recycled sourcing (Eq. 5);
///   * delta -- fraction of device mass recycled at end of life (Eq. 6),
///     with the WARM discard/credit factors swept across their Table 1
///     ranges.
/// Quantifies how much "circular economy" levers move the verdict.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_rho_sweep() {
  io::TextTable table;
  table.set_headers({"rho", "FPGA mfg CFP/chip (DNN)", "ASIC total [t]", "FPGA total [t]",
                     "FPGA:ASIC"});
  const auto testcase = device::domain_testcase(device::Domain::dnn);
  const auto schedule = core::paper_schedule(device::Domain::dnn);
  for (const double rho : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    core::ModelSuite suite = core::paper_suite();
    suite.fab.recycled_material_fraction = rho;
    const core::LifecycleModel model(suite);
    const auto comparison = core::compare(model, testcase, schedule);
    const auto per_chip = model.per_chip_embodied(testcase.fpga);
    table.add_row({units::format_significant(rho, 3),
                   units::format_carbon(per_chip.manufacturing),
                   units::format_significant(comparison.asic.total.total().in(t_co2e), 5),
                   units::format_significant(comparison.fpga.total.total().in(t_co2e), 5),
                   units::format_significant(comparison.ratio(), 4)});
  }
  std::cout << "Eq. (5) recycled-material sourcing (both platforms benefit):\n"
            << table.render() << "\n";
}

void print_delta_sweep() {
  io::TextTable table;
  table.set_headers({"delta", "EOL/chip (FPGA)", "EOL/chip (ASIC)", "FPGA:ASIC"});
  const auto testcase = device::domain_testcase(device::Domain::dnn);
  const auto schedule = core::paper_schedule(device::Domain::dnn);
  for (const double delta : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    core::ModelSuite suite = core::paper_suite();
    suite.eol.recycled_fraction = delta;
    const core::LifecycleModel model(suite);
    const auto comparison = core::compare(model, testcase, schedule);
    table.add_row({units::format_significant(delta, 3),
                   units::format_carbon(model.per_chip_embodied(testcase.fpga).eol),
                   units::format_carbon(model.per_chip_embodied(testcase.asic).eol),
                   units::format_significant(comparison.ratio(), 4)});
  }
  std::cout << "Eq. (6) end-of-life recycling (credit grows with delta):\n"
            << table.render() << "\n";
}

void print_warm_extremes() {
  io::TextTable table;
  table.set_headers({"WARM factors", "DNN A2F [apps]"});
  struct Case {
    const char* label;
    double dis;
    double recycle;
  };
  for (const Case& c : {Case{"low (0.03 / 7.65)", 0.03, 7.65},
                        Case{"mid (1.0 / 15.0)", 1.0, 15.0},
                        Case{"high (2.08 / 29.83)", 2.08, 29.83}}) {
    core::ModelSuite suite = core::paper_suite();
    suite.eol.discard_factor = c.dis * mtco2e_per_ton;
    suite.eol.recycle_credit_factor = c.recycle * mtco2e_per_ton;
    const auto series = bench::sweep(
        device::Domain::dnn,
        scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 16, 16), suite);
    const auto a2f = first_crossover(series.crossovers(), scenario::CrossoverKind::a2f);
    table.add_row({c.label, a2f ? units::format_significant(*a2f, 4) : std::string("none")});
  }
  std::cout << "crossover robustness across the WARM factor ranges:\n" << table.render();
}

void print_reproduction() {
  bench::banner("Ablation A3", "recycling levers: Eq. (5) rho and Eq. (6) delta");
  print_rho_sweep();
  print_delta_sweep();
  print_warm_extremes();
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
