#ifndef GREENFPGA_SCENARIO_SPEC_HPP
#define GREENFPGA_SCENARIO_SPEC_HPP

/// \file spec.hpp
/// Declarative scenario specification: the single input type of the
/// evaluation engine.
///
/// A `ScenarioSpec` is a plain data object describing *what* to evaluate
/// -- platforms (by registry name or explicit device), a model suite, a
/// deployment schedule, optional sweep/grid axes, an optional time-varying
/// grid profile, and output selection -- while `scenario::Engine` decides
/// *how* (dispatch, parallelism, memoisation).  Every experiment (sweep,
/// heatmap, breakeven, node DSE, timeline, sensitivity, ...) is a spec of
/// the matching kind, and the same shape
/// round-trips through JSON (`spec_to_json` / `spec_from_json`) so
/// arbitrary user-authored scenarios run via `greenfpga run <spec.json>`
/// without recompiling.
///
/// JSON round-trip contract: `write_spec` (and its DOM form `spec_to_json`)
/// is canonical and total (every field, defaults included), so serialize -> parse -> re-serialize is
/// byte-identical (pinned by tests/engine_test.cpp).  The only spec
/// content that does not survive JSON is a *programmatic* sensitivity
/// range (a custom `ParameterRange` applier): ranges serialize by name and
/// are reconstructed from `table1_ranges()` on load.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifecycle_model.hpp"
#include "core/paper_config.hpp"
#include "core/param_distributions.hpp"
#include "device/chip_spec.hpp"
#include "dse/frontier_spec.hpp"
#include "io/json.hpp"
#include "io/json_writer.hpp"
#include "scenario/fleet.hpp"
#include "scenario/sensitivity.hpp"
#include "tech/node.hpp"
#include "workload/application.hpp"

namespace greenfpga::scenario {

/// What kind of experiment a spec describes; selects the engine's
/// dispatch path.
enum class ScenarioKind {
  compare,      ///< one evaluation point, all platforms head-to-head
  sweep,        ///< 1-D sweep over one axis (paper Figs. 4-6)
  grid,         ///< 2-D grid over two axes (paper Fig. 8 heat-maps)
  timeline,     ///< cumulative multi-decade replay (paper Fig. 9)
  node_dse,     ///< fabrication-node design-space exploration
  breakeven,    ///< closed-form crossover solves in all three variables
  sensitivity,  ///< tornado + Monte-Carlo over parameter ranges
  montecarlo,   ///< uncertainty quantification: distribution-sampled inputs
  frontier,     ///< platform win-region DSE over 2-4 deployment axes
  fleet,        ///< mixed-platform datacenter serving a traffic trace
};

[[nodiscard]] std::string to_string(ScenarioKind kind);
[[nodiscard]] std::optional<ScenarioKind> parse_scenario_kind(std::string_view text);

/// The scenario variables an axis can sweep (the paper's N_app, T_i, N_vol).
enum class SweepVariable {
  app_count,
  lifetime_years,
  volume,
};

[[nodiscard]] std::string to_string(SweepVariable variable);
[[nodiscard]] std::optional<SweepVariable> parse_sweep_variable(std::string_view text);

/// How an axis generates its sample values.
enum class AxisScale {
  list,    ///< explicit values
  linear,  ///< linspace(from, to, count)
  log,     ///< logspace(from, to, count)
};

[[nodiscard]] std::string to_string(AxisScale scale);

/// One sweep/grid axis: a scenario variable plus its sample generator.
/// Keeping the generator (rather than materialised samples) preserves the
/// author's intent through JSON round-trips.
struct AxisSpec {
  SweepVariable variable = SweepVariable::app_count;
  AxisScale scale = AxisScale::list;
  double from = 0.0;
  double to = 0.0;
  int count = 0;
  std::vector<double> explicit_values;  ///< used when scale == list

  /// Materialise the sample values.
  [[nodiscard]] std::vector<double> values() const;

  /// Axis label ("N_app", "T_i [years]", "N_vol [units]").
  [[nodiscard]] std::string label() const;

  [[nodiscard]] static AxisSpec list(SweepVariable variable, std::vector<double> values);
  [[nodiscard]] static AxisSpec linear(SweepVariable variable, double from, double to,
                                       int count);
  [[nodiscard]] static AxisSpec log(SweepVariable variable, double from, double to,
                                    int count);
};

/// A platform under evaluation: a registry name, optionally pinned to an
/// explicit device (which bypasses the registry lookup).
struct PlatformRef {
  std::string name;
  std::optional<device::ChipSpec> chip = std::nullopt;
};

/// The deployment schedule, in the paper's homogeneous parameterisation
/// (N_app identical applications at T_i / N_vol), or an explicit
/// application list.  Axes override the homogeneous fields per point;
/// an explicit schedule is incompatible with axes.  The member defaults
/// mirror `core::SweepDefaults`; `ScenarioSpec::make()` re-seeds them
/// from `core::paper_sweep_defaults()` so a calibration change reaches
/// the engine path.
struct ScheduleSpec {
  int app_count = 5;
  double lifetime_years = 2.0;
  double volume = 1e6;
  std::optional<workload::Schedule> explicit_schedule;

  /// Build the concrete schedule for `domain` (paper prototype apps).
  [[nodiscard]] workload::Schedule materialise(device::Domain domain) const;
};

/// One built schedule reused across evaluation points (one per pool
/// worker), so a point costs its arithmetic rather than a fresh vector
/// and `app_count` name strings.  `assign` returns exactly what
/// `spec.materialise(domain)` would: it materialises only when the
/// application count or domain changes, and otherwise overwrites every
/// application's lifetime and volume with the same arithmetic after the
/// same prototype check (a bad axis value throws the same error).  An
/// explicit schedule is returned as is.  The reference lives until the
/// next `assign`, and for an explicit schedule as long as `spec`.
class ScheduleBuffer {
 public:
  [[nodiscard]] const workload::Schedule& assign(const ScheduleSpec& spec,
                                                 device::Domain domain);

 private:
  workload::Schedule schedule_;
  workload::Application prototype_;
  device::Domain domain_ = device::Domain::dnn;
  int app_count_ = 0;
  bool built_ = false;
};

/// Time-varying grid-intensity selection (act/grid_profile): a named
/// 24-hour profile plus the duty scheduling policy.  When set, the engine
/// replaces `suite.operation.use_intensity` with the effective scheduled
/// intensity before evaluating.
struct GridProfileSpec {
  std::string profile = "uniform";  ///< "uniform" | "solar_duck" | "windy_night"
  std::string policy = "uniform";   ///< "uniform" | "carbon_aware" | "worst_case"
};

/// Timeline-kind parameters (schedule supplies T_i and N_vol).
struct TimelineSpec {
  double horizon_years = 45.0;
  double step_years = 0.25;
};

/// Node-DSE-kind parameters.  Default subject: the domain's FPGA.
struct DseSpec {
  std::optional<device::ChipSpec> chip;
  std::vector<tech::ProcessNode> nodes;  ///< empty = all database nodes
};

/// Breakeven-kind parameters: which closed-form solves to run (the
/// schedule supplies the fixed-point context).  Each solve validates its
/// own single-fleet precondition, so a subset only checks the
/// preconditions of the solves it runs.
struct BreakevenSpec {
  bool solve_app_count = true;
  bool solve_lifetime = true;
  bool solve_volume = true;
};

/// Sensitivity-kind parameters.  `ranges` is taken verbatim (empty =
/// perturb nothing); `ScenarioSpec::make()` seeds it with
/// `table1_ranges()`, and a JSON spec that omits "ranges" keeps that
/// default while "ranges": [...] (by name, including []) replaces it.
struct SensitivitySpec {
  bool run_tornado = true;
  bool run_monte_carlo = true;
  int samples = 256;
  unsigned seed = 42;
  std::vector<ParameterRange> ranges;
};

/// Monte-Carlo-kind parameters: how many lifecycle evaluations to sample,
/// the RNG seed, the per-parameter input distributions, and which output
/// percentiles to report.  `distributions` attach to *named* Table 1
/// parameters (`table1_ranges()` names); `ScenarioSpec::make()` seeds them
/// as uniform over every Table 1 range, and a JSON spec that omits
/// "distributions" keeps that default while "distributions": [...]
/// (including []) replaces it.  Sampling uses counter-based per-sample RNG
/// streams (`core::counter_uniform01`), so engine results are bit-identical
/// for any worker count.
struct MonteCarloUqSpec {
  int samples = 1024;
  unsigned seed = 42;
  std::vector<core::ParamDistribution> distributions;
  /// Reported percentiles, in percent, strictly increasing in [0, 100].
  std::vector<double> percentiles = {5.0, 25.0, 50.0, 75.0, 95.0};
};

/// Uniform distributions over every Table 1 range: the montecarlo default
/// (mirrors `table1_ranges()` name-for-name).
[[nodiscard]] std::vector<core::ParamDistribution> default_distributions();

/// Output selection: what the engine retains in the result.
struct OutputSpec {
  /// Keep per-application attribution in every evaluated point.  Always
  /// kept for `compare`; off by default for sweeps/grids, where it would
  /// multiply the result size by the schedule length.
  bool per_application = false;
};

/// The declarative scenario: a plain aggregate, JSON round-trippable.
struct ScenarioSpec {
  std::string name = "scenario";
  ScenarioKind kind = ScenarioKind::compare;
  device::Domain domain = device::Domain::dnn;
  /// Platforms in evaluation order; the first is the ratio baseline.
  /// Empty means {"asic", "fpga"}.
  std::vector<PlatformRef> platforms;
  core::ModelSuite suite;  ///< defaults to core::paper_suite() via make()
  ScheduleSpec schedule;
  std::vector<AxisSpec> axes;  ///< sweep: exactly 1; grid: exactly 2
  std::optional<GridProfileSpec> grid_profile;
  TimelineSpec timeline;
  DseSpec dse;
  BreakevenSpec breakeven;
  SensitivitySpec sensitivity;
  MonteCarloUqSpec montecarlo;
  /// Frontier-kind parameters (dse/frontier_spec.hpp).  `make()` seeds a
  /// default app_count x volume grid; the confidence pass draws its
  /// parameter distributions from `montecarlo.distributions`.
  dse::FrontierSpec frontier;
  /// Fleet-kind parameters.  Engaged only for the fleet kind (`make()`
  /// seeds `default_fleet_spec()` there); nullopt -- and omitted from the
  /// JSON form -- for every other kind, so pre-registry specs stay
  /// byte-identical.
  std::optional<FleetSpec> fleet;
  OutputSpec outputs;

  /// A spec with the paper-default suite (aggregate initialisation would
  /// zero-initialise `suite`, which is never what an author wants).
  [[nodiscard]] static ScenarioSpec make(ScenarioKind kind,
                                         device::Domain domain = device::Domain::dnn);

  /// Structural validation (axis arity per kind, axis generators,
  /// schedule/axes compatibility).  Throws std::invalid_argument.
  void validate() const;
};

/// Write the canonical spec object (every field, defaults included, keys
/// sorted) as the next value of `out`: the common sections and each kind
/// module's `write_params` sections, streamed in one sorted pass with no
/// DOM.  The spec's canonical bytes, the engine cache key and the result
/// envelope's `spec` section are all this.
void write_spec(const ScenarioSpec& spec, io::JsonWriter& out);

/// DOM form of the canonical spec (`io::written_json` of `write_spec`).
[[nodiscard]] io::Json spec_to_json(const ScenarioSpec& spec);

/// Parse a spec; absent fields keep their defaults (suite defaults to the
/// paper suite).  Unknown keys raise core::ConfigError.
[[nodiscard]] ScenarioSpec spec_from_json(const io::Json& json);

/// Load a spec file (JSON with // comments allowed).
[[nodiscard]] ScenarioSpec load_spec(const std::string& path);

/// Parse an already-loaded spec document, wrapping every parse/validation
/// error with `source` exactly like `load_spec` (for callers that have
/// read the file for other reasons, e.g. the batch manifest scan).
[[nodiscard]] ScenarioSpec load_spec_json(const io::Json& json, const std::string& source);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_SPEC_HPP
