/// \file result_render.cpp
/// The four renderers over scenario frames.  Kind-specific text reports
/// and the CSV sample dump are registry hooks (KindModule::render_text /
/// sample_csv); this file owns only the generic frame rendering.

#include "report/result_render.hpp"

#include <ostream>

#include "scenario/kind_registry.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::report {

namespace {

/// CSV block list: a single frame renders bare; several get `# <name>`
/// separators so the blocks can be split back apart.
void frames_to_csv(std::span<const ResultFrame> frames, std::ostream& out) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames.size() > 1) {
      out << (i > 0 ? "\n" : "") << "# " << frames[i].name << "\n";
    }
    out << frame_to_csv(frames[i]).render();
  }
}

void frames_to_text(std::span<const ResultFrame> frames, std::ostream& out) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      out << "\n";
    }
    out << frame_to_table(frames[i]);
  }
}

void frames_to_markdown(std::span<const ResultFrame> frames, std::ostream& out) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      out << "\n";
    }
    out << frame_to_markdown(frames[i]);
  }
}

/// The human text report: header, then the kind's own rendering if its
/// module claims the result (render_text returning true), otherwise the
/// generic frame tables.
void render_text(const scenario::ScenarioResult& result,
                 std::span<const ResultFrame> frames, std::ostream& out) {
  out << "== " << result.spec.name << " (" << to_string(result.spec.kind) << ", "
      << to_string(result.spec.domain) << ") ==\n";
  const scenario::KindModule& module = scenario::kind_module(result.spec.kind);
  if (module.render_text != nullptr && module.render_text(result, frames, out)) {
    return;
  }
  frames_to_text(frames, out);
}

}  // namespace

std::string to_string(OutputFormat format) {
  switch (format) {
    case OutputFormat::text:
      return "text";
    case OutputFormat::json:
      return "json";
    case OutputFormat::csv:
      return "csv";
    case OutputFormat::markdown:
      return "md";
  }
  return "unknown";
}

std::optional<OutputFormat> parse_output_format(std::string_view text) {
  if (text == "text") return OutputFormat::text;
  if (text == "json") return OutputFormat::json;
  if (text == "csv") return OutputFormat::csv;
  if (text == "md" || text == "markdown") return OutputFormat::markdown;
  return std::nullopt;
}

void render_result(const scenario::ScenarioResult& result, OutputFormat format,
                   std::ostream& out) {
  std::vector<ResultFrame> frames = scenario::to_frames(result);
  switch (format) {
    case OutputFormat::text:
      render_text(result, frames, out);
      return;
    case OutputFormat::json:
      out << scenario::result_document(result);
      return;
    case OutputFormat::csv: {
      const scenario::KindModule& module = scenario::kind_module(result.spec.kind);
      if (module.sample_csv != nullptr && module.sample_csv(result.spec)) {
        frames.push_back(scenario::mc_samples_frame(result));
      }
      frames_to_csv(frames, out);
      return;
    }
    case OutputFormat::markdown:
      out << "## " << result.spec.name << " (" << to_string(result.spec.kind) << ", "
          << to_string(result.spec.domain) << ")\n\n";
      frames_to_markdown(frames, out);
      return;
  }
}

void render_frames(std::span<const ResultFrame> frames, OutputFormat format,
                   std::ostream& out) {
  switch (format) {
    case OutputFormat::text:
      frames_to_text(frames, out);
      return;
    case OutputFormat::json: {
      io::Json array = io::Json::array();
      for (const ResultFrame& frame : frames) {
        array.push_back(frame_to_json(frame));
      }
      std::string text;
      array.dump_to(text);
      text.push_back('\n');
      out << text;
      return;
    }
    case OutputFormat::csv:
      frames_to_csv(frames, out);
      return;
    case OutputFormat::markdown:
      frames_to_markdown(frames, out);
      return;
  }
}

}  // namespace greenfpga::report
