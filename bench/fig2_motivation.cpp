/// Reproduces Fig. 2: CFP comparison between ASIC- and FPGA-based
/// computing for a single application and for ten applications (DNN
/// domain, iso-performance, T_i = 2 y, N_vol = 1e6).
///
/// Paper shape: the FPGA starts with a higher CFP than the ASIC (larger
/// die, 3x power), but reusing it across ten applications saves the
/// recurring embodied carbon and ends ~25 % below the ASIC.

#include "bench_common.hpp"
#include "core/comparator.hpp"
#include "device/catalog.hpp"
#include "report/figure_writer.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_reproduction() {
  bench::banner("Fig. 2", "ASIC vs FPGA CFP, 1 application vs 10 applications (DNN)");

  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  for (const int apps : {1, 10}) {
    const core::Comparison comparison = core::compare(
        model, testcase,
        core::paper_schedule(device::Domain::dnn, apps, bench::kDefaults.app_lifetime,
                             bench::kDefaults.app_volume));
    std::cout << "N_app = " << apps << "\n";
    const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
        {"ASIC", comparison.asic.total},
        {"FPGA", comparison.fpga.total},
    };
    std::cout << report::breakdown_table(platforms);
    std::cout << "FPGA:ASIC = " << units::format_significant(comparison.ratio(), 4);
    if (comparison.ratio() < 1.0) {
      std::cout << "  (FPGA " << units::format_significant(100.0 * (1.0 - comparison.ratio()), 3)
                << " % lower)";
    } else {
      std::cout << "  (FPGA " << units::format_significant(100.0 * (comparison.ratio() - 1.0), 3)
                << " % higher)";
    }
    std::cout << "\n\n";
  }
  std::cout << "paper: FPGA higher at 1 application; ~25 % lower at 10 applications\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
