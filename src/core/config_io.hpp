#ifndef GREENFPGA_CORE_CONFIG_IO_HPP
#define GREENFPGA_CORE_CONFIG_IO_HPP

/// \file config_io.hpp
/// JSON (de)serialisation of the GreenFPGA configuration types.
///
/// The CLI consumes scenario files shaped like:
///
///     {
///       // model parameters; any omitted field keeps its paper default
///       "suite": { "design": {...}, "appdev": {...}, "fab": {...},
///                  "operation": {...}, "package": {...}, "eol": {...} },
///       "asic":  { "name": "...", "node": "10nm", "die_area_mm2": 150,
///                  "peak_power_w": 2.0, ... },
///       "fpga":  { ... },
///       "schedule": [ { "name": "app-1", "lifetime_years": 2,
///                       "volume": 1e6 }, ... ]
///     }
///
/// Quantities appear in config files as plain numbers with the unit in the
/// key name (`die_area_mm2`, `lifetime_years`), the format used by the
/// released tool's configs.  Unknown keys raise ConfigError so typos fail
/// loudly instead of silently keeping defaults.

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifecycle_model.hpp"
#include "core/paper_config.hpp"
#include "io/json.hpp"
#include "io/json_writer.hpp"
#include "workload/application.hpp"

namespace greenfpga::core {

/// Raised on malformed or inconsistent configuration input.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& message) : std::runtime_error(message) {}
};

/// A fully-specified comparison scenario.
struct ScenarioConfig {
  std::string name = "scenario";
  ModelSuite suite;
  device::ChipSpec asic;
  device::ChipSpec fpga;
  workload::Schedule schedule;
};

/// Verifies a JSON object uses only `allowed` keys, raising ConfigError
/// naming the offender and `context` otherwise (shared by every config
/// reader so typos fail loudly and identically).
void check_known_keys(const io::Json& json, const std::string& context,
                      std::initializer_list<std::string_view> allowed);

/// Reads an optional integer field with a range check: absent -> fallback,
/// non-integral or outside [lo, hi] -> ConfigError (never a raw
/// double-to-int cast, which would be UB for out-of-range input).
[[nodiscard]] std::int64_t int_field_or(const io::Json& json, std::string_view key,
                                        std::int64_t fallback, std::int64_t lo,
                                        std::int64_t hi);

/// Named-field reads for the spec decoders: a type-mismatched value raises
/// io::JsonError without saying *which* field was bad, so these rethrow it
/// as ConfigError naming the dotted path `context.key` (just `key` when
/// `context` is empty), which `greenfpga run` surfaces with the spec path.
[[nodiscard]] double number_field(const io::Json& json, const std::string& context,
                                  std::string_view key);
[[nodiscard]] double number_field_or(const io::Json& json, const std::string& context,
                                     std::string_view key, double fallback);
/// A number array, every element read as a number.
[[nodiscard]] std::vector<double> numbers_field(const io::Json& json,
                                                const std::string& context,
                                                std::string_view key);
/// A string array, every element read as a string.
[[nodiscard]] std::vector<std::string> strings_field(const io::Json& json,
                                                     const std::string& context,
                                                     std::string_view key);
[[nodiscard]] std::string string_field_or(const io::Json& json,
                                          const std::string& context,
                                          std::string_view key, std::string_view fallback);
/// int_field_or with the same path-prefixed errors.
[[nodiscard]] std::int64_t int_field_ctx(const io::Json& json, const std::string& context,
                                         std::string_view key, std::int64_t fallback,
                                         std::int64_t lo, std::int64_t hi);

// -- readers (each starts from defaults and applies present fields) ----------
[[nodiscard]] ModelSuite suite_from_json(const io::Json& json, ModelSuite defaults = {});
[[nodiscard]] device::ChipSpec chip_from_json(const io::Json& json);
[[nodiscard]] workload::Application application_from_json(const io::Json& json);
[[nodiscard]] workload::Schedule schedule_from_json(const io::Json& json);
[[nodiscard]] ScenarioConfig scenario_from_json(const io::Json& json);
/// Inverse of `write_json(CfpBreakdown)`: reads the six component fields
/// (derived embodied/total keys are accepted and ignored -- they are
/// recomputed, so `to_json(breakdown_from_json(x)) == x` holds for any
/// writer output).
[[nodiscard]] CfpBreakdown breakdown_from_json(const io::Json& json);
/// Inverse of `write_json(PlatformCfp)`.
[[nodiscard]] PlatformCfp platform_cfp_from_json(const io::Json& json);

/// Load a scenario file (JSON with // comments allowed).
[[nodiscard]] ScenarioConfig load_scenario(const std::string& path);

// -- writers -------------------------------------------------------------------
/// Streamed writers: the canonical bytes of each type, written as the next
/// value of `out` (an object's members in sorted key order).  Spec, cache
/// key and result bytes are all made of these.
void write_json(io::JsonWriter& out, const ModelSuite& suite);
void write_json(io::JsonWriter& out, const device::ChipSpec& chip);
void write_json(io::JsonWriter& out, const workload::Application& app);
void write_json(io::JsonWriter& out, const workload::Schedule& schedule);
void write_json(io::JsonWriter& out, const CfpBreakdown& breakdown);
void write_json(io::JsonWriter& out, const PlatformCfp& platform);

/// DOM forms of the same bytes (`io::written_json` of the writers above),
/// for callers that edit or inspect a value rather than emit it.
[[nodiscard]] io::Json to_json(const ModelSuite& suite);
[[nodiscard]] io::Json to_json(const device::ChipSpec& chip);
[[nodiscard]] io::Json to_json(const workload::Application& app);
[[nodiscard]] io::Json to_json(const workload::Schedule& schedule);
[[nodiscard]] io::Json to_json(const CfpBreakdown& breakdown);
[[nodiscard]] io::Json to_json(const PlatformCfp& platform);

}  // namespace greenfpga::core

#endif  // GREENFPGA_CORE_CONFIG_IO_HPP
