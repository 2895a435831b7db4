/// Ablation A2 (DESIGN.md): application-development accounting.  Eq. (2)
/// literally multiplies C_app-dev by the application lifetime T_i; Fig. 10
/// treats app-dev as a one-time overhead.  This bench quantifies how much
/// the choice matters at paper scales (answer: very little -- app-dev is
/// watt-scale engineering compute against megaton fleets), justifying the
/// one_time default.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "scenario/sweep.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

core::ModelSuite suite_with(core::AppDevAccounting accounting) {
  core::ModelSuite suite = core::paper_suite();
  suite.appdev.accounting = accounting;
  return suite;
}

void print_reproduction() {
  bench::banner("Ablation A2", "app-dev accounting: one-time vs literal per-year Eq. (2)");

  io::TextTable table;
  table.set_headers({"domain", "T_i [y]", "FPGA app-dev (one-time)",
                     "FPGA app-dev (per-year)", "total ratio shift"});
  for (const device::Domain domain : device::all_domains()) {
    for (const double lifetime_years : {0.5, 2.0, 2.5}) {
      const auto schedule = core::paper_schedule(domain, bench::kDefaults.app_count,
                                                 lifetime_years * years,
                                                 bench::kDefaults.app_volume);
      const auto testcase = device::domain_testcase(domain);
      const auto one_time =
          core::compare(core::LifecycleModel(suite_with(core::AppDevAccounting::one_time)),
                        testcase, schedule);
      const auto per_year =
          core::compare(core::LifecycleModel(suite_with(core::AppDevAccounting::per_year)),
                        testcase, schedule);
      table.add_row(
          {to_string(domain), units::format_significant(lifetime_years, 3),
           units::format_carbon(one_time.fpga.total.app_dev),
           units::format_carbon(per_year.fpga.total.app_dev),
           units::format_significant(per_year.ratio() - one_time.ratio(), 3)});
    }
  }
  std::cout << table.render()
            << "\nconclusion: the accounting choice moves the FPGA:ASIC ratio by well\n"
               "under 1 % at paper scales; one_time is the default (DESIGN.md §1.1)\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
