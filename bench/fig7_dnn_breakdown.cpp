/// Reproduces Fig. 7: component breakdown (embodied EC vs operational OC)
/// of the DNN domain for the three sweeps of experiments A-C, at the paper
/// defaults N_app = 5, T_i = 2 y, N_vol = 1e6 unless swept.
///
/// Paper shape: (a) sweeping N_app -- FPGA EC constant, ASIC EC grows and
/// dominates; (b) sweeping T_i -- EC flat, FPGA OC grows 3x faster;
/// (c) sweeping N_vol -- EC dominates at low volume, ASIC EC >> FPGA EC.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_ec_oc_table(const scenario::SweepSeries& series, const std::string& label) {
  io::TextTable table;
  table.set_headers({series.parameter, "ASIC EC [t]", "ASIC OC [t]", "FPGA EC [t]",
                     "FPGA OC [t]", "FPGA app-dev [t]"});
  for (std::size_t i = 0; i < series.x.size(); ++i) {
    const auto t = [](units::CarbonMass m) {
      return units::format_significant(m.in(t_co2e), 5);
    };
    table.add_row({units::format_significant(series.x[i], 4),
                   t(series.asic[i].embodied()), t(series.asic[i].operational),
                   t(series.fpga[i].embodied()), t(series.fpga[i].operational),
                   t(series.fpga[i].app_dev)});
  }
  std::cout << "-- Fig. 7(" << label << ") --\n" << table.render();
  const std::string path =
      report::write_results_csv("fig7_" + label + ".csv", report::sweep_csv(series));
  std::cout << "csv: " << path << "\n\n";
}

void print_reproduction() {
  bench::banner("Fig. 7", "DNN component breakdown across the three sweeps");
  using scenario::AxisSpec;
  using scenario::SweepVariable;
  constexpr device::Domain dnn = device::Domain::dnn;

  print_ec_oc_table(bench::sweep(dnn, AxisSpec::linear(SweepVariable::app_count, 1, 8, 8)),
                    "a");
  print_ec_oc_table(
      bench::sweep(dnn, AxisSpec::linear(SweepVariable::lifetime_years, 0.2, 2.5, 10)), "b");
  print_ec_oc_table(bench::sweep(dnn, AxisSpec::log(SweepVariable::volume, 1e3, 1e6, 10)),
                    "c");

  std::cout << "paper: ASIC EC grows with N_app and dominates; FPGA EC constant;\n"
               "       FPGA OC grows with T_i; EC dominates at low volume\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
