/// Reproduces Fig. 8: pairwise sweeps of (N_vol, N_app, T_i) for the DNN
/// domain, each holding the third variable at the paper default, rendered
/// as FPGA:ASIC CFP-ratio heat-maps with the crossover front marked.
///
/// Paper shape: purple (FPGA greener) toward many apps / short lifetimes /
/// low volumes; red (ASIC greener) toward few apps / high volumes; at high
/// volume (~9 M) FPGAs need N_app > 6.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/csv.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

/// Runs a DNN grid-kind spec over (x, y), the third variable at the
/// paper default.
scenario::Heatmap dnn_heatmap(scenario::AxisSpec x, scenario::AxisSpec y) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::grid, device::Domain::dnn);
  spec.axes = {std::move(x), std::move(y)};
  return scenario::Engine().run(spec).heatmap();
}

io::CsvWriter heatmap_csv(const scenario::Heatmap& map) {
  io::CsvWriter csv;
  std::vector<std::string> header{map.y_name + " \\ " + map.x_name};
  for (const double x : map.x) {
    header.push_back(units::format_significant(x, 6));
  }
  csv.add_row(std::move(header));
  for (std::size_t iy = 0; iy < map.y.size(); ++iy) {
    std::vector<std::string> row{units::format_significant(map.y[iy], 6)};
    for (const double r : map.ratio[iy]) {
      row.push_back(units::format_significant(r, 6));
    }
    csv.add_row(std::move(row));
  }
  return csv;
}

void show(const scenario::Heatmap& map, const std::string& label,
          const std::string& constant) {
  std::cout << "-- Fig. 8(" << label << "): " << map.y_name << " x " << map.x_name << " ("
            << constant << " constant) --\n"
            << report::render_heatmap(map);
  const auto contour = map.unity_contour();
  std::cout << "crossover front (ratio = 1): ";
  if (contour.empty()) {
    std::cout << "none in range";
  } else {
    for (std::size_t i = 0; i < contour.size() && i < 8; ++i) {
      std::cout << "(" << units::format_significant(contour[i].x, 4) << ", "
                << units::format_significant(contour[i].y, 4) << ") ";
    }
    if (contour.size() > 8) std::cout << "...";
  }
  std::cout << "\ncsv: " << report::write_results_csv("fig8_" + label + ".csv", heatmap_csv(map))
            << "\n\n";
}

void print_reproduction() {
  bench::banner("Fig. 8", "pairwise FPGA:ASIC ratio heat-maps, DNN domain");
  using scenario::AxisSpec;
  using scenario::SweepVariable;
  const AxisSpec apps =
      AxisSpec::list(SweepVariable::app_count, {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16});
  const AxisSpec lifetimes = AxisSpec::linear(SweepVariable::lifetime_years, 0.25, 2.5, 10);
  const AxisSpec volumes = AxisSpec::log(SweepVariable::volume, 1e4, 1e7, 12);

  show(dnn_heatmap(apps, lifetimes), "a", "N_vol = 1e6");
  show(dnn_heatmap(volumes, lifetimes), "b", "N_app = 5");
  show(dnn_heatmap(volumes, apps), "c", "T_i = 2 y");

  std::cout << "paper: FPGA region grows with N_app, shrinks with N_vol and T_i\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
