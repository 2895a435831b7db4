#ifndef GREENFPGA_BENCH_BENCH_COMMON_HPP
#define GREENFPGA_BENCH_BENCH_COMMON_HPP

/// \file bench_common.hpp
/// Shared scaffolding for the figure-reproduction bench binaries.
///
/// Every bench binary prints the rows/series of one paper table or figure
/// (the reproduction), also emitting CSV under results/ for re-plotting.
/// The experiments run as `ScenarioSpec`s through `scenario::Engine`, the
/// one way the repo runs a kind; model and engine timings live in the
/// `greenfpga bench` harness (src/bench/), not here.
///
/// `GF_BENCH_MAIN(print_function)` wires the reproduction into a main().

#include <iostream>
#include <utility>

#include "core/paper_config.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::bench {

/// Paper sweep defaults shared by the experiment benches.
inline const core::SweepDefaults kDefaults = core::paper_sweep_defaults();

/// Prints a figure banner so bench output reads like the paper's layout.
inline void banner(const std::string& figure, const std::string& caption) {
  std::cout << "\n=== " << figure << ": " << caption << " ===\n\n";
}

/// Runs a sweep-kind spec for `domain`: one `axis`, the paper-default
/// schedule for the other two variables, models from `suite`.
inline scenario::SweepSeries sweep(device::Domain domain, scenario::AxisSpec axis,
                                   core::ModelSuite suite = core::paper_suite()) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, domain);
  spec.suite = std::move(suite);
  spec.axes = {std::move(axis)};
  return scenario::Engine().run(spec).sweep_series();
}

}  // namespace greenfpga::bench

/// Expands to a main() that prints the reproduction (exit 1 if it throws).
#define GF_BENCH_MAIN(print_function)                      \
  int main() {                                             \
    try {                                                  \
      print_function();                                    \
    } catch (const std::exception& error) {                \
      std::cerr << "reproduction failed: " << error.what() \
                << "\n";                                   \
      return 1;                                            \
    }                                                      \
    return 0;                                              \
  }

#endif  // GREENFPGA_BENCH_BENCH_COMMON_HPP
