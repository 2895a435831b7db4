#ifndef GREENFPGA_TESTS_GOLDEN_RESULT_SPECS_HPP
#define GREENFPGA_TESTS_GOLDEN_RESULT_SPECS_HPP

/// The one-spec-per-kind set behind the tests/golden/result_<kind>.json
/// snapshots, shared by the golden result suite and the writer suite so
/// both pin the same results.

#include <stdexcept>
#include <vector>

#include "scenario/engine.hpp"

namespace greenfpga::scenario::golden {

/// Small, fast specs -- one per kind -- chosen so the snapshots stay
/// reviewable (a handful of points/samples each).
inline ScenarioSpec spec_for(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::compare: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::crypto);
      spec.name = "golden compare";
      spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                        PlatformRef{.name = "gpu"}};
      return spec;
    }
    case ScenarioKind::sweep: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden sweep";
      spec.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 4, 4)};
      return spec;
    }
    case ScenarioKind::grid: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden grid";
      spec.axes = {AxisSpec::log(SweepVariable::volume, 1e5, 1e6, 2),
                   AxisSpec::linear(SweepVariable::lifetime_years, 0.5, 1.5, 3)};
      return spec;
    }
    case ScenarioKind::timeline: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden timeline";
      spec.timeline.horizon_years = 20.0;
      spec.timeline.step_years = 1.0;
      return spec;
    }
    case ScenarioKind::node_dse: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::crypto);
      spec.name = "golden node_dse";
      return spec;
    }
    case ScenarioKind::breakeven: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden breakeven";
      return spec;
    }
    case ScenarioKind::sensitivity: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::imgproc);
      spec.name = "golden sensitivity";
      spec.sensitivity.samples = 32;
      spec.sensitivity.seed = 7;
      return spec;
    }
    case ScenarioKind::montecarlo: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden montecarlo";
      spec.montecarlo.samples = 16;
      spec.montecarlo.seed = 3;
      return spec;
    }
    case ScenarioKind::frontier: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden frontier";
      spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                        PlatformRef{.name = "gpu"}, PlatformRef{.name = "cpu"}};
      spec.frontier.axes = {
          dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1, 4, 4),
          dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e4, 1e6, 3)};
      spec.frontier.confidence_samples = 8;
      spec.frontier.seed = 11;
      return spec;
    }
    case ScenarioKind::fleet: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden fleet";
      spec.fleet->mc_samples = 8;
      spec.montecarlo.seed = 5;
      return spec;
    }
  }
  throw std::logic_error("spec_for: unknown kind");
}

inline const std::vector<ScenarioKind>& all_kinds() {
  static const std::vector<ScenarioKind> kinds{
      ScenarioKind::compare,   ScenarioKind::sweep,     ScenarioKind::grid,
      ScenarioKind::timeline,  ScenarioKind::node_dse,  ScenarioKind::breakeven,
      ScenarioKind::sensitivity, ScenarioKind::montecarlo, ScenarioKind::frontier,
      ScenarioKind::fleet};
  return kinds;
}

inline ScenarioResult run_kind(ScenarioKind kind, int threads = 1) {
  const Engine engine(EngineOptions{.threads = threads});
  return engine.run(spec_for(kind));
}

}  // namespace greenfpga::scenario::golden

#endif  // GREENFPGA_TESTS_GOLDEN_RESULT_SPECS_HPP
