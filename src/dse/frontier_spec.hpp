#ifndef GREENFPGA_DSE_FRONTIER_SPEC_HPP
#define GREENFPGA_DSE_FRONTIER_SPEC_HPP

/// \file frontier_spec.hpp
/// Declarative description of a platform-frontier design-space exploration.
///
/// The paper's sweeps and heat-maps answer "how does platform X compare to
/// platform Y along this axis?".  The frontier DSE asks the converse
/// question: *where* -- in the joint space of application count, lifetime,
/// volume and fabrication node -- does each platform win?  A
/// `FrontierSpec` names the axes of that space and the objective that
/// decides a winner; `dse::FrontierSearch` (frontier.hpp) evaluates the
/// grid and extracts per-platform win regions.
///
/// This layer sits below `scenario::`: it depends only on tech/units/io
/// and the core config helpers, so `scenario::ScenarioSpec` can embed a
/// `FrontierSpec` (kind "frontier") without an include cycle.
///
/// JSON contract matches the scenario spec: `core::write_json` is
/// canonical and total (every field, defaults included), so
/// serialize -> parse -> re-serialize is byte-identical; unknown keys
/// raise `core::ConfigError`.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "io/json_writer.hpp"
#include "tech/node.hpp"

namespace greenfpga::dse {

/// The deployment-space variables a frontier axis can span.  The first
/// three are the paper's N_app / T_i / N_vol; `node` retargets every
/// platform device across fabrication nodes (the node-DSE dimension).
enum class FrontierVariable {
  app_count,
  lifetime_years,
  volume,
  node,
};

[[nodiscard]] std::string to_string(FrontierVariable variable);
[[nodiscard]] std::optional<FrontierVariable> parse_frontier_variable(
    std::string_view text);

/// Which carbon number decides the winner of a cell.
enum class FrontierObjective {
  total,        ///< embodied + deployment (the paper's headline metric)
  embodied,     ///< design + manufacturing + packaging + EOL
  operational,  ///< use-phase energy carbon only
};

[[nodiscard]] std::string to_string(FrontierObjective objective);
[[nodiscard]] std::optional<FrontierObjective> parse_frontier_objective(
    std::string_view text);

/// How a numeric axis generates its sample values (mirrors the scenario
/// AxisScale; duplicated here to keep the layering acyclic).
enum class FrontierAxisScale {
  list,    ///< explicit values
  linear,  ///< linspace(from, to, count)
  log,     ///< logspace(from, to, count)
};

[[nodiscard]] std::string to_string(FrontierAxisScale scale);

/// One axis of the frontier grid.  Numeric variables use
/// scale/from/to/count or explicit values; the `node` variable carries an
/// explicit node list (empty = every database node, oldest first).
struct FrontierAxisSpec {
  FrontierVariable variable = FrontierVariable::app_count;
  FrontierAxisScale scale = FrontierAxisScale::list;
  double from = 0.0;
  double to = 0.0;
  int count = 0;
  std::vector<double> explicit_values;   ///< numeric axes, scale == list
  std::vector<tech::ProcessNode> nodes;  ///< node axis only

  /// Materialise the sample coordinates.  A node axis yields the
  /// marketing-nm figure of each node (28, 20, ..., 3) so every cell
  /// coordinate is a plain double.
  [[nodiscard]] std::vector<double> values() const;

  /// Node list with the empty-list default applied (node axis only).
  [[nodiscard]] std::vector<tech::ProcessNode> materialised_nodes() const;

  /// Axis label for tables and charts ("N_app", "T_i [years]",
  /// "N_vol [units]", "node [nm]").
  [[nodiscard]] std::string label() const;

  [[nodiscard]] static FrontierAxisSpec list(FrontierVariable variable,
                                             std::vector<double> values);
  [[nodiscard]] static FrontierAxisSpec linear(FrontierVariable variable, double from,
                                               double to, int count);
  [[nodiscard]] static FrontierAxisSpec log(FrontierVariable variable, double from,
                                            double to, int count);
  [[nodiscard]] static FrontierAxisSpec node_list(std::vector<tech::ProcessNode> nodes);
};

/// The frontier search space: 2-4 axes over distinct variables, the
/// win-deciding objective, and the optional Monte-Carlo confidence pass
/// (`confidence_samples` parameter-sampled re-evaluations of the grid;
/// 0 disables it).
struct FrontierSpec {
  std::vector<FrontierAxisSpec> axes;
  FrontierObjective objective = FrontierObjective::total;
  int confidence_samples = 0;
  unsigned seed = 42;

  /// Structural validation: 2-4 axes, distinct variables, at most one
  /// node axis, every axis generator well-formed.  Throws
  /// std::invalid_argument.
  void validate() const;
};

/// Parse a frontier spec; absent fields keep the values in `defaults`
/// (so a caller-seeded axis set survives a partial object).  Unknown
/// keys raise core::ConfigError; `context` prefixes every error message.
[[nodiscard]] FrontierSpec frontier_spec_from_json(const io::Json& json,
                                                   const std::string& context,
                                                   FrontierSpec defaults = {});

}  // namespace greenfpga::dse

namespace greenfpga::core {

/// Canonical JSON of a frontier section (every field, defaults included,
/// keys sorted).  Declared beside its type so core/ stays below dse/.
void write_json(io::JsonWriter& out, const dse::FrontierSpec& spec);

}  // namespace greenfpga::core

#endif  // GREENFPGA_DSE_FRONTIER_SPEC_HPP
