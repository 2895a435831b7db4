#ifndef GREENFPGA_SCENARIO_KIND_REGISTRY_HPP
#define GREENFPGA_SCENARIO_KIND_REGISTRY_HPP

/// \file kind_registry.hpp
/// The scenario-kind registry: one `KindModule` vtable per `ScenarioKind`.
///
/// Every per-kind behaviour the system needs -- spec parameter bytes,
/// validation, engine execution, result bytes, frame lowering, and text
/// rendering -- lives in that kind's module under `src/scenario/kinds/`,
/// and the generic layers (spec.cpp, engine.cpp, result_io.cpp,
/// report/result_render.cpp, the CLI) derive their behaviour by iterating
/// or indexing the registry.  `execute` is the only way a kind is
/// evaluated: `Engine::run` and `Engine::run_batch` both call it.  Adding
/// a scenario kind means adding one enum value, one module file, and one
/// registry entry -- no switch ladder grows (a CI lint rejects `case
/// ScenarioKind` outside `src/scenario/kinds/`).  See ARCHITECTURE.md, "Scenario kind
/// registry", for the step-by-step recipe.

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/json_writer.hpp"
#include "report/result_frame.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::scenario {

/// Execution context handed to a module's `execute` hook.
struct KindRunContext {
  int threads = 1;  ///< the engine's worker budget for internal pools
};

/// One scenario kind's complete behaviour.  Hooks may be null where the
/// table below says "optional"; `name`, `kind` and `execute` are required.
struct KindModule {
  ScenarioKind kind = ScenarioKind::compare;
  std::string_view name;                           ///< canonical kind token
  std::span<const std::string_view> aliases = {};  ///< extra parse tokens
  std::string_view summary;                        ///< one-line CLI help text

  // -- spec layer ------------------------------------------------------------
  /// Axis arity `ScenarioSpec::validate` enforces for this kind.
  std::size_t expected_axes = 0;
  /// Top-level spec keys this module owns (parsed by `parse_params`).
  std::span<const std::string_view> spec_keys = {};
  /// Seed kind defaults into a fresh spec (`ScenarioSpec::make`).  Called
  /// for every module regardless of kind -- the canonical spec JSON emits
  /// every kind's section -- so a module whose defaults only apply to its
  /// own kind must check `spec.kind` itself.  Optional.
  void (*seed_defaults)(ScenarioSpec& spec) = nullptr;
  /// Write this module's spec section `key` (one of its `spec_keys`) as
  /// the next member of the canonical spec object: `out.key(...)` then the
  /// value, or nothing when the spec carries no such section.  Called on
  /// every spec, once per owned key, in the global sorted order of the
  /// common spec keys plus every module's `spec_keys`; members inside the
  /// section must be written in sorted key order too (`io::JsonWriter`
  /// checks).  Optional.
  void (*write_params)(const ScenarioSpec& spec, std::string_view key,
                       io::JsonWriter& out) = nullptr;
  /// Parse this module's sections when present (any kind; the canonical
  /// form carries every section).  Optional.
  void (*parse_params)(const io::Json& json, ScenarioSpec& spec) = nullptr;
  /// Kind-specific validation, called by `ScenarioSpec::validate` for
  /// specs of this kind after the structural checks.  Optional.
  void (*validate)(const ScenarioSpec& spec) = nullptr;
  /// Default platform list when the spec names none; null means the
  /// paper's ASIC/FPGA head-to-head pair.  Optional.
  std::vector<PlatformRef> (*default_platforms)() = nullptr;

  // -- engine layer ----------------------------------------------------------
  /// Evaluate a prepared spec: fill `result`'s payload from the effective
  /// `suite`.  Required.
  void (*execute)(const KindRunContext& context, const core::ModelSuite& suite,
                  ScenarioResult& result) = nullptr;

  // -- result-io layer -------------------------------------------------------
  /// Top-level result keys this module owns (exactly one owner per key).
  std::span<const std::string_view> result_keys = {};
  /// Write this module's result section `key` (one of its `result_keys`)
  /// as the next member of the canonical result object: `out.key(...)`
  /// then the value, or nothing when the result carries no such payload.
  /// Called on every result, once per owned key, in the global sorted
  /// order of all top-level result keys; members inside the section must
  /// be written in sorted key order too (`io::JsonWriter` checks).
  /// `threads` bounds the pool workers a large section may write with
  /// (`io::write_elements`); the bytes do not depend on it.  Optional.
  void (*write_result)(const ScenarioResult& result, std::string_view key,
                       io::JsonWriter& out, int threads) = nullptr;
  /// Parse this module's sections when present.  Called for every module.
  /// Optional.
  void (*result_from_json)(const io::Json& json, ScenarioResult& result) = nullptr;

  // -- report layer ----------------------------------------------------------
  /// Lower the result into presentation frames.  Required.
  void (*to_frames)(const ScenarioResult& result,
                    std::vector<report::ResultFrame>& frames) = nullptr;
  /// Kind-specific text rendering (charts, summary lines).  Return true
  /// when handled; false (or a null hook) falls back to the plain frame
  /// tables.  Optional.
  bool (*render_text)(const ScenarioResult& result,
                      std::span<const report::ResultFrame> frames,
                      std::ostream& out) = nullptr;
  /// Whether `--csv` should append the per-sample Monte-Carlo frame
  /// (`mc_samples_frame`) for specs of this kind.  Optional (null = no).
  bool (*sample_csv)(const ScenarioSpec& spec) = nullptr;
};

/// Every registered module, indexed by `static_cast<std::size_t>(kind)`.
[[nodiscard]] std::span<const KindModule* const> all_kind_modules();

/// The module of `kind`; throws std::logic_error for an unregistered value.
[[nodiscard]] const KindModule& kind_module(ScenarioKind kind);

/// Look a module up by canonical name or alias; nullptr when unknown.
[[nodiscard]] const KindModule* find_kind_module(std::string_view name);

/// "compare, sweep, grid, ..." -- the canonical names in enum order, for
/// error messages and CLI help (generated, so the list can never drift).
[[nodiscard]] std::string kind_name_list();

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_KIND_REGISTRY_HPP
