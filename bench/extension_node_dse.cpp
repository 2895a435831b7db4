/// Extension bench: carbon-aware process-node selection (§5's
/// "sustainability-minded design decisions" + the carbon-aware DSE line
/// of work the paper cites [16]).
///
/// For the DNN FPGA design, ranks every manufacturable fabrication node by
/// lifecycle CFP under (a) the edge regime and (b) the datacenter regime,
/// exposing the embodied-vs-operational tradeoff: trailing nodes win when
/// devices idle, leading nodes win when they run hot.

#include "bench_common.hpp"
#include "device/catalog.hpp"
#include "io/table.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace {

using namespace greenfpga;
using namespace units::unit;

void print_ranking(const std::string& label, const core::ModelSuite& suite) {
  // Subject: the DNN FPGA; schedule: the paper defaults; every node.
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::node_dse, device::Domain::dnn);
  spec.suite = suite;
  const auto candidates = scenario::Engine().run(spec).candidates;

  io::TextTable table;
  table.set_headers({"rank", "node", "die area", "peak power", "embodied [t]",
                     "operational [t]", "total [t]", "vs best"});
  int rank = 1;
  for (const scenario::NodeCandidate& candidate : candidates) {
    table.add_row({std::to_string(rank++), tech::to_string(candidate.chip.node),
                   units::format_area(candidate.chip.die_area),
                   units::format_power(candidate.chip.peak_power),
                   units::format_significant(candidate.lifecycle.embodied().in(t_co2e), 5),
                   units::format_significant(candidate.lifecycle.operational.in(t_co2e), 5),
                   units::format_significant(candidate.total().in(t_co2e), 5),
                   units::format_significant(candidate.total_vs_best, 4)});
  }
  std::cout << label << ":\n" << table.render() << "\n";
}

void print_reproduction() {
  bench::banner("Extension", "carbon-aware node selection for the DNN FPGA (5 apps, 1M)");
  print_ranking("edge regime (2 % duty -- embodied dominates)", core::paper_suite());
  print_ranking("datacenter regime (50 % duty, PUE 1.2 -- operation dominates)",
                core::industry_suite());
  std::cout << "reading: density outpaces fab carbon-per-area in the ACT dataset, so\n"
               "the most advanced feasible node wins at iso-design in both regimes --\n"
               "but the margin is embodied-driven when idle and power-driven when hot,\n"
               "and trailing nodes drop out at the reticle limit\n";
}

}  // namespace

GF_BENCH_MAIN(print_reproduction)
