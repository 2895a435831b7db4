/// Reproduces Table 1: the GreenFPGA input-parameter ranges, and extends
/// it with the one-at-a-time (tornado) sensitivity of the FPGA:ASIC
/// verdict over each range -- quantifying §5's configurability discussion.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_ranges() {
  io::TextTable table;
  table.set_headers({"model", "parameter", "range", "unit", "source"});
  table.add_row({"C_materials", "rho", "0 - 1", "-", "[27]/user-defined"});
  table.add_row({"C_EOL", "delta", "0 - 1", "-", "[29]"});
  table.add_row({"C_EOL", "C_recycle", "7.65 - 29.83", "MTCO2E/ton", "[29]"});
  table.add_row({"C_EOL", "C_dis", "0.03 - 2.08", "MTCO2E/ton", "[29]"});
  table.add_row({"C_app-dev", "T_app,FE", "1.5 - 2.5", "months", "user-defined"});
  table.add_row({"C_app-dev", "T_app,BE", "0.5 - 1.5", "months", "user-defined"});
  table.add_row({"C_des", "E_des", "2 - 7.3", "GWh", "[23-25]"});
  table.add_row({"C_des", "C_src,des", "30 - 700", "g CO2/kWh", "[4, 22]"});
  table.add_row({"C_des", "N_emp,des", "20K - 160K", "employees", "[23-25]"});
  table.add_row({"C_des", "T_proj", "1 - 3", "years", "[31]"});
  std::cout << table.render();
}

void print_tornado(const std::vector<scenario::TornadoEntry>& entries) {
  io::TextTable table;
  table.set_headers({"parameter", "ratio @ low", "ratio @ high", "swing"});
  for (const scenario::TornadoEntry& entry : entries) {
    table.add_row({entry.name, units::format_significant(entry.ratio_at_low, 4),
                   units::format_significant(entry.ratio_at_high, 4),
                   units::format_significant(entry.swing(), 4)});
  }
  std::cout << "\none-at-a-time sensitivity of the FPGA:ASIC ratio, DNN (N_app = 5, T = 2 y, "
               "V = 1e6):\n"
            << table.render();
}

void print_reproduction() {
  bench::banner("Table 1", "input parameter ranges + sensitivity over each range");
  print_ranges();
  // One sensitivity-kind spec at its defaults: the tornado plus a
  // 256-sample, seed-42 Monte-Carlo over every Table 1 range.
  const scenario::ScenarioResult result = scenario::Engine().run(
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sensitivity, device::Domain::dnn));
  print_tornado(result.tornado);

  const scenario::MonteCarloResult& mc = *result.monte_carlo;
  std::cout << "\nMonte-Carlo over all Table 1 ranges (256 samples, seed 42):\n"
            << "  ratio mean " << units::format_significant(mc.mean, 4) << ", p05 "
            << units::format_significant(mc.p05, 4) << ", median "
            << units::format_significant(mc.p50, 4) << ", p95 "
            << units::format_significant(mc.p95, 4) << "\n  FPGA greener in "
            << units::format_significant(100.0 * mc.fpga_win_fraction, 4)
            << " % of sampled configurations\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
