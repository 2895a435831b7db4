#ifndef GREENFPGA_REPORT_RESULT_RENDER_HPP
#define GREENFPGA_REPORT_RESULT_RENDER_HPP

/// \file result_render.hpp
/// Output-format dispatch over the frame IR.
///
/// The CLI's `--format` flag selects one of four renderers over the same
/// `ResultFrame`s (`scenario::to_frames`):
///
///   * `text`     -- the human report: per-kind summary lines, fixed-width
///                   tables, and the ASCII charts (heat-map shading, ratio
///                   CDF) that have no machine equivalent;
///   * `json`     -- the canonical result JSON (`scenario::result_bytes`),
///                   byte-identical across thread counts and round-trippable
///                   through `result_from_json`;
///   * `csv`      -- RFC 4180 frames (one header + data block per frame,
///                   `# <name>` separators when there are several);
///   * `markdown` -- GitHub-flavoured tables.
///
/// `commands.cpp` is a thin argument-parsing shell over these entry
/// points: no scenario kind is rendered anywhere else.

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "report/result_frame.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::report {

/// The CLI `--format` values.
enum class OutputFormat { text, json, csv, markdown };

/// "text" / "json" / "csv" / "md".
[[nodiscard]] std::string to_string(OutputFormat format);

/// Accepts the CLI tokens ("md" and "markdown" both select markdown).
[[nodiscard]] std::optional<OutputFormat> parse_output_format(std::string_view text);

/// Render an engine result in the given format.  Montecarlo results
/// additionally emit their per-sample frame under csv (the raw matrix is
/// part of the machine-readable surface but would drown the human one).
void render_result(const scenario::ScenarioResult& result, OutputFormat format,
                   std::ostream& out);

/// Render bare frames (no scenario context: `industry`, `figures`, the
/// batch index).  Under json this emits a JSON array of frame objects.
void render_frames(std::span<const ResultFrame> frames, OutputFormat format,
                   std::ostream& out);

}  // namespace greenfpga::report

#endif  // GREENFPGA_REPORT_RESULT_RENDER_HPP
