/// Reproduces Fig. 5: variation of CFP with application lifetime T_i
/// (0.2..2.5 years), with N_app = 5 and N_vol = 1e6 held constant.
///
/// Paper shape: Crypto -- FPGA always greener; ImgProc -- ASIC always
/// greener; DNN -- FPGA greener for short lifetimes with an F2A crossover
/// at ~1.6 years.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_reproduction() {
  bench::banner("Fig. 5", "CFP vs T_i (N_app = 5, N_vol = 1e6 constant)");
  for (const device::Domain domain : device::all_domains()) {
    const scenario::SweepSeries series = bench::sweep(
        domain,
        scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5, 24));
    std::cout << "-- " << to_string(domain) << " --\n"
              << report::sweep_table(series)
              << "crossovers: " << report::crossover_summary(series) << "\n";
    const std::vector<report::ChartSeries> chart{
        {"ASIC", 'a', series.asic_totals_kg()},
        {"FPGA", 'f', series.fpga_totals_kg()},
    };
    std::cout << report::render_line_chart(series.x, chart) << "\n";
    const std::string path = report::write_results_csv(
        "fig5_" + to_string(domain) + ".csv", report::sweep_csv(series));
    std::cout << "csv: " << path << "\n\n";
  }
  std::cout << "paper: Crypto always FPGA; ImgProc always ASIC; DNN F2A at ~1.6 years\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
