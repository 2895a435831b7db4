/// Reproduces Fig. 4: variation of CFP with the number of applications
/// N_app (1..12), with T_i = 2 years and N_vol = 1e6 held constant, for
/// all three application domains.
///
/// Paper shape: A2F crossover after the first application for Crypto,
/// after ~6 applications for DNN, and past the extended axis (~12) for
/// ImgProc.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_reproduction() {
  bench::banner("Fig. 4", "CFP vs N_app (T_i = 2 y, N_vol = 1e6 constant)");
  for (const device::Domain domain : device::all_domains()) {
    const scenario::SweepSeries series = bench::sweep(
        domain, scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 12, 12));
    std::cout << "-- " << to_string(domain) << " --\n"
              << report::sweep_table(series)
              << "crossovers: " << report::crossover_summary(series) << "\n";
    const std::vector<report::ChartSeries> chart{
        {"ASIC", 'a', series.asic_totals_kg()},
        {"FPGA", 'f', series.fpga_totals_kg()},
    };
    std::cout << report::render_line_chart(series.x, chart) << "\n";
    const std::string path = report::write_results_csv(
        "fig4_" + to_string(domain) + ".csv", report::sweep_csv(series));
    std::cout << "csv: " << path << "\n\n";
  }
  std::cout << "paper: A2F at 1 (Crypto), ~6 (DNN), ~12 (ImgProc, extended axis)\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
