/// Example: generating a machine-readable sustainability report.
///
/// Drives the library the way a CI job or web service would: build a
/// scenario programmatically (or load one from JSON), evaluate it,
/// quantify input uncertainty with the Table 1 Monte-Carlo machinery, and
/// emit a single JSON document with the verdict, the component breakdown,
/// the tornado ranking and the confidence band.
///
/// Pass an output path as argv[1] (default: sustainability_report.json).

#include <iostream>

#include "core/comparator.hpp"
#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "io/json.hpp"
#include "io/json_writer.hpp"
#include "scenario/engine.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

int main(int argc, char** argv) {
  using namespace greenfpga;
  using namespace units::unit;

  const std::string output = argc > 1 ? argv[1] : "sustainability_report.json";

  // A custom device pair, built through the public spec types rather than
  // the catalog: a 7 nm video-analytics ASIC against a same-node FPGA.
  device::ChipSpec asic;
  asic.name = "video-asic-7nm";
  asic.kind = device::ChipKind::asic;
  asic.node = tech::ProcessNode::n7;
  asic.die_area = 120.0 * mm2;
  asic.peak_power = 3.0 * w;
  asic.capacity_gates = tech::node_info(asic.node).gates_in_area(asic.die_area);
  asic.service_life = 8.0 * years;
  const device::ChipSpec fpga = derive_iso_fpga(asic, device::Domain::imgproc);

  device::DomainTestcase testcase;
  testcase.domain = device::Domain::imgproc;
  testcase.asic = asic;
  testcase.fpga = fpga;

  workload::Application app;
  app.name = "video-pipeline";
  app.domain = device::Domain::imgproc;
  app.lifetime = 1.5 * years;
  app.volume = 5e4;  // 50K units: low-volume industrial product
  const workload::Schedule schedule = workload::homogeneous_schedule(6, app);

  const core::ModelSuite suite = core::paper_suite();
  const core::LifecycleModel model(suite);
  const core::Comparison comparison = core::compare(model, testcase, schedule);

  // Uncertainty: a sensitivity-kind spec over the same pair and schedule
  // -- the Table 1 ranges one at a time, then 512 Monte-Carlo samples.
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sensitivity, testcase.domain);
  spec.suite = suite;
  spec.platforms = {{.name = "asic", .chip = asic}, {.name = "fpga", .chip = fpga}};
  spec.schedule.explicit_schedule = schedule;
  spec.sensitivity.samples = 512;
  spec.sensitivity.seed = 2024;
  const scenario::ScenarioResult sensitivity = scenario::Engine().run(spec);
  const scenario::MonteCarloResult& mc = *sensitivity.monte_carlo;
  const std::vector<scenario::TornadoEntry>& tornado = sensitivity.tornado;

  // A value's canonical JSON bytes, read back as a DOM to nest in the report.
  const auto dom = [](const auto& value) {
    return io::written_json([&value](io::JsonWriter& out) { core::write_json(out, value); });
  };
  io::Json report = io::Json::object();
  report["scenario"] = "video analytics, 6 pipelines x 18 months, 50K units";
  report["suite"] = dom(suite);
  report["asic"] = dom(comparison.asic);
  report["fpga"] = dom(comparison.fpga);
  report["ratio"] = comparison.ratio();
  report["greener"] = to_string(comparison.verdict());

  io::Json uncertainty = io::Json::object();
  uncertainty["samples"] = mc.samples;
  uncertainty["ratio_mean"] = mc.mean;
  uncertainty["ratio_p05"] = mc.p05;
  uncertainty["ratio_p95"] = mc.p95;
  uncertainty["fpga_win_fraction"] = mc.fpga_win_fraction;
  report["uncertainty"] = std::move(uncertainty);

  io::Json drivers = io::Json::array();
  for (std::size_t i = 0; i < 3 && i < tornado.size(); ++i) {
    io::Json driver = io::Json::object();
    driver["parameter"] = tornado[i].name;
    driver["ratio_at_low"] = tornado[i].ratio_at_low;
    driver["ratio_at_high"] = tornado[i].ratio_at_high;
    drivers.push_back(std::move(driver));
  }
  report["top_drivers"] = std::move(drivers);

  io::write_json_file(output, report);

  std::cout << "scenario : 6 video pipelines x 18 months at 50K units (7 nm pair)\n"
            << "verdict  : " << to_string(comparison.verdict()) << " (ratio "
            << units::format_significant(comparison.ratio(), 3) << ")\n"
            << "robust?  : FPGA greener in "
            << units::format_significant(100.0 * mc.fpga_win_fraction, 3)
            << " % of " << mc.samples << " sampled Table-1 configurations\n"
            << "report   : " << output << "\n";
  return 0;
}
