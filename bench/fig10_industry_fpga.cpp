/// Reproduces Fig. 10: CFP components of the two industry FPGAs (Table 3)
/// when each runs for six years with three applications (reprogrammed
/// three times) at 1 M volume, under the datacenter parameter suite.
///
/// Paper shape: operational CFP dominates, then manufacturing, then design
/// (~15 % of embodied); app-dev is minimal even after three
/// reconfigurations; EOL is a very small contributor.

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

workload::Schedule fig10_schedule() {
  workload::Application app;
  app.name = "industry-app";
  app.lifetime = 2.0 * years;  // 3 applications x 2 years = 6 years
  app.volume = 1e6;
  return workload::homogeneous_schedule(3, app);
}

void print_reproduction() {
  bench::banner("Fig. 10", "IndustryFPGA1/2 components: 6 years, 3 apps, 1 M volume");
  const core::LifecycleModel model(core::industry_suite());
  const workload::Schedule schedule = fig10_schedule();

  std::vector<std::pair<std::string, core::CfpBreakdown>> rows;
  for (const device::ChipSpec& fpga : {device::industry_fpga1(), device::industry_fpga2()}) {
    const core::PlatformCfp result = model.evaluate_fpga(fpga, schedule);
    rows.emplace_back(fpga.name, result.total);
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
        {"app-dev", breakdown.app_dev.in(t_co2e)},
    };
    std::cout << report::render_bars(bars);
    std::cout << "design share of embodied: "
              << units::format_significant(
                     100.0 * breakdown.design.canonical() / breakdown.embodied().canonical(),
                     3)
              << " %\n";
  }
  std::cout << "\npaper: operational dominant; design ~15 % of embodied; app-dev minimal\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
