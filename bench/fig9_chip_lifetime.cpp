/// Reproduces Fig. 9: cumulative CFP with a 15-year FPGA chip lifetime and
/// 1-year applications, evaluated past the chip lifetime (45-year horizon).
///
/// Paper shape: the FPGA curve jumps at the 15- and 30-year marks (fleet
/// re-manufacture) while the ASIC staircase is uniform (new chips per
/// application anyway); ImgProc sees multiple A2F/F2A crossovers, the
/// other domains' verdicts never flip.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_reproduction() {
  bench::banner("Fig. 9", "45-year timeline, 15-year FPGA service life, 1-year apps");
  for (const device::Domain domain : device::all_domains()) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::make(scenario::ScenarioKind::timeline, domain);
    spec.schedule.lifetime_years = 1.0;
    spec.schedule.volume = 1e6;
    spec.timeline = {.horizon_years = 45.0, .step_years = 0.25};
    const scenario::TimelineSeries series = *scenario::Engine().run(spec).timeline;

    std::cout << "-- " << to_string(domain) << " --\n";
    io::TextTable table;
    table.set_headers({"year", "ASIC cumulative [t]", "FPGA cumulative [t]", "greener"});
    for (double year = 0.0; year <= 45.0; year += 5.0) {
      const auto index = static_cast<std::size_t>(year / 0.25);
      const double asic = series.asic_cumulative_kg[index];
      const double fpga = series.fpga_cumulative_kg[index];
      table.add_row({units::format_significant(year, 3),
                     units::format_significant(asic / 1e3, 5),
                     units::format_significant(fpga / 1e3, 5),
                     fpga < asic ? "FPGA" : "ASIC"});
    }
    std::cout << table.render();

    std::cout << "FPGA fleet purchases at years: ";
    for (const double year : series.fpga_purchase_years) {
      std::cout << units::format_significant(year, 3) << " ";
    }
    const auto crossovers = series.crossovers();
    std::cout << "\ncumulative-curve crossings: " << crossovers.size() << "\n";
    const std::vector<report::ChartSeries> chart{
        {"ASIC", 'a', series.asic_cumulative_kg},
        {"FPGA", 'f', series.fpga_cumulative_kg},
    };
    std::cout << report::render_line_chart(series.time_years, chart) << "\n";
    std::cout << "csv: "
              << report::write_results_csv("fig9_" + to_string(domain) + ".csv",
                                           report::timeline_csv(series))
              << "\n\n";
  }
  std::cout << "paper: FPGA jumps at 15/30 years; multiple crossovers for ImgProc only\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
