#ifndef GREENFPGA_SCENARIO_RESULT_IO_HPP
#define GREENFPGA_SCENARIO_RESULT_IO_HPP

/// \file result_io.hpp
/// Structured result output: frame lowering and the canonical JSON form.
///
/// `ScenarioResult` is the engine's in-memory answer; this module gives it
/// two machine-readable faces:
///
///   * `to_frames` lowers every `ScenarioKind` into one or more columnar
///     `report::ResultFrame`s -- the single source every renderer (text
///     table, CSV, Markdown, batch index) draws from, so no output format
///     ever re-implements a scenario kind;
///   * `write_result` / `result_bytes` stream the canonical, total JSON
///     bytes straight from the kind modules (no DOM), and
///     `result_from_json` reads them back: serialize -> parse ->
///     re-serialize is byte-identical, and
///     `result_from_json(result_to_json(r)) == r` (pinned by
///     tests/golden_results_test.cpp and tests/json_writer_test.cpp).
///     Downstream consumers (dashboards, caches, the `greenfpga batch`
///     index) can therefore read any answer without re-running the
///     engine.
///
/// The only result content that does not survive JSON is the *programmatic*
/// part of a sensitivity spec (custom `ParameterRange` appliers), which --
/// exactly as in `spec_to_json` -- serializes by name and is reconstructed
/// from `table1_ranges()` on load.

#include <string>
#include <vector>

#include "io/json.hpp"
#include "io/json_writer.hpp"
#include "report/result_frame.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::scenario {

/// Write the canonical JSON object of an engine result as the next value
/// of `out`: the as-run spec, the resolved platforms, and the
/// kind-dependent payload (every field, sorted keys, shortest round-trip
/// numbers).  Each section is streamed by its owner in the global sorted
/// key order.  Up to `threads` pool workers write the large sections
/// (the bytes are the same at any count).
void write_result(const ScenarioResult& result, io::JsonWriter& out, int threads = 1);

/// The canonical result bytes: `indent` 2 is the pretty form, 0 the
/// compact form.
[[nodiscard]] std::string result_bytes(const ScenarioResult& result, int indent = 2);

/// The pretty bytes plus a trailing newline: exactly what `--format json`
/// prints, a result file holds and a `/v1/run` response carries;
/// `threads` as for `write_result`.
[[nodiscard]] std::string result_document(const ScenarioResult& result, int threads = 1);

/// `result_document`'s bytes as the writer's own buffers, uncopied (the
/// form a `ResultCache` entry keeps).
[[nodiscard]] io::ByteSegments result_segments(const ScenarioResult& result, int threads = 1);

/// The canonical result as a DOM: `io::parse_json` of the compact bytes.
/// For callers that inspect or edit the value; anything that only needs
/// the text uses `result_bytes` / `write_result`.
[[nodiscard]] io::Json result_to_json(const ScenarioResult& result);

/// Inverse of `write_result` (over the parsed bytes).  Throws
/// core::ConfigError / io::JsonError on malformed input.
[[nodiscard]] ScenarioResult result_from_json(const io::Json& json);

/// Result equality, defined as equality of the canonical compact bytes
/// (the payload holds std::function-bearing spec members, so memberwise
/// comparison is not expressible; canonical JSON is the identity every
/// consumer observes).
[[nodiscard]] bool operator==(const ScenarioResult& a, const ScenarioResult& b);

/// Lower a result into its presentation frames (at least one for every
/// kind; sensitivity yields tornado + Monte-Carlo summary frames).  The
/// raw Monte-Carlo sample matrix is deliberately *not* lowered here --
/// see `mc_samples_frame`.
[[nodiscard]] std::vector<report::ResultFrame> to_frames(const ScenarioResult& result);

/// Per-sample frame of a montecarlo-kind result: one row per sample, a
/// total column per platform and a ratio column per non-baseline platform
/// (the `--csv` export).  Throws std::logic_error when the result carries
/// no uncertainty payload.
[[nodiscard]] report::ResultFrame mc_samples_frame(const ScenarioResult& result);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_RESULT_IO_HPP
