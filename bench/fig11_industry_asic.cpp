/// Reproduces Fig. 11: CFP components of the two industry ASICs (Table 3)
/// over a six-year application at 1 M volume, never reprogrammed, under
/// the datacenter parameter suite.
///
/// Paper shape: operational CFP is the predominant contributor, followed
/// by manufacturing and design.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"
#include "workload/application.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

workload::Schedule fig11_schedule() {
  workload::Application app;
  app.name = "industry-asic-app";
  app.lifetime = 6.0 * years;
  app.volume = 1e6;
  return {app};
}

void print_reproduction() {
  bench::banner("Fig. 11", "IndustryASIC1/2 components: one 6-year app, 1 M volume");
  const core::LifecycleModel model(core::industry_suite());
  const workload::Schedule schedule = fig11_schedule();

  std::vector<std::pair<std::string, core::CfpBreakdown>> rows;
  for (const device::ChipSpec& asic : {device::industry_asic1(), device::industry_asic2()}) {
    const core::PlatformCfp result = model.evaluate_asic(asic, schedule);
    rows.emplace_back(asic.name, result.total);
  }
  std::cout << report::breakdown_table(rows);

  for (const auto& [name, breakdown] : rows) {
    std::cout << "\n" << name << ":\n";
    const std::vector<report::Bar> bars{
        {"design", breakdown.design.in(t_co2e)},
        {"manufacturing", breakdown.manufacturing.in(t_co2e)},
        {"packaging", breakdown.packaging.in(t_co2e)},
        {"end-of-life", breakdown.eol.in(t_co2e)},
        {"operational", breakdown.operational.in(t_co2e)},
    };
    std::cout << report::render_bars(bars);
  }
  std::cout << "\npaper: operational predominant, then manufacturing and design\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
