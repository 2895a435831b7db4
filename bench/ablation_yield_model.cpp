/// Ablation A4 (DESIGN.md): yield-model choice.  The 1/Y multiplier in the
/// manufacturing model is the lever that turns Table 2's 4x/7.42x area
/// ratios into super-linear embodied penalties for the big FPGA dies --
/// so the choice of yield model (Poisson / Murphy / Seeds / negative
/// binomial) shifts the crossovers.  This bench shows die yields per model
/// and the resulting DNN/ImgProc A2F movement.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "tech/yield.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

constexpr std::array<tech::YieldModel, 4> kModels{
    tech::YieldModel::poisson,
    tech::YieldModel::murphy,
    tech::YieldModel::seeds,
    tech::YieldModel::negative_binomial,
};

core::ModelSuite suite_with(tech::YieldModel model) {
  core::ModelSuite suite = core::paper_suite();
  suite.fab.yield.model = model;
  return suite;
}

void print_yields() {
  io::TextTable table;
  table.set_headers({"die", "area", "poisson", "murphy", "seeds", "neg-binomial"});
  const std::vector<device::ChipSpec> chips{
      device::domain_testcase(device::Domain::dnn).asic,
      device::domain_testcase(device::Domain::dnn).fpga,
      device::domain_testcase(device::Domain::imgproc).fpga,
  };
  for (const device::ChipSpec& chip : chips) {
    std::vector<std::string> row{chip.name, units::format_area(chip.die_area)};
    for (const tech::YieldModel model : kModels) {
      const core::LifecycleModel lifecycle(suite_with(model));
      row.push_back(units::format_significant(
          lifecycle.fab_model().yield(chip.node, chip.die_area), 3));
    }
    table.add_row(std::move(row));
  }
  std::cout << "die yields by model (10 nm defect density):\n" << table.render() << "\n";
}

void print_crossovers() {
  io::TextTable table;
  table.set_headers({"yield model", "DNN A2F [apps]", "ImgProc A2F [apps]",
                     "DNN F2A volume [units]"});
  for (const tech::YieldModel model : kModels) {
    std::vector<std::string> row{to_string(model)};
    for (const device::Domain domain : {device::Domain::dnn, device::Domain::imgproc}) {
      const auto series = bench::sweep(
          domain, scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 24, 24),
          suite_with(model));
      const auto a2f = first_crossover(series.crossovers(), scenario::CrossoverKind::a2f);
      row.push_back(a2f ? units::format_significant(*a2f, 4) : std::string("> 24"));
    }
    const auto series = bench::sweep(
        device::Domain::dnn,
        scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 41),
        suite_with(model));
    const auto f2a = first_crossover(series.crossovers(), scenario::CrossoverKind::f2a);
    row.push_back(f2a ? units::format_significant(*f2a, 4) : std::string("none"));
    table.add_row(std::move(row));
  }
  std::cout << "crossover movement by yield model:\n" << table.render()
            << "\npessimistic models (low yield on big dies) delay the FPGA's\n"
               "amortisation; clustering-aware models favour it\n";
}

void print_reproduction() {
  bench::banner("Ablation A4", "yield-model choice vs crossover positions");
  print_yields();
  print_crossovers();
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
