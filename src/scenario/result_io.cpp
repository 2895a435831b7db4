/// \file result_io.cpp
/// Canonical result bytes (total, byte-identical round-trip).  The common
/// envelope -- spec and resolved platforms -- lives here; every kind
/// section is owned by its registry module.  Writing streams the sections
/// in the global sorted key order straight into the bytes; reading parses
/// and iterates the registry (sections are presence-gated).

#include "scenario/result_io.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kind_registry.hpp"

namespace greenfpga::scenario {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

/// One top-level result key and its owning module (nullptr for the
/// envelope sections every result carries).
struct ResultSection {
  std::string_view key;
  const KindModule* module = nullptr;
};

/// Every top-level result key -- the envelope's plus each module's
/// `result_keys` -- in canonical (sorted) order.  The kind keys interleave
/// with the envelope ones (sensitivity's monte_carlo / tornado sit around
/// platforms / spec), so the writer walks this one merged list.
const std::vector<ResultSection>& result_sections() {
  static const std::vector<ResultSection> sections = [] {
    std::vector<ResultSection> out{{"platforms", nullptr}, {"spec", nullptr}};
    for (const KindModule* module : all_kind_modules()) {
      for (const std::string_view key : module->result_keys) {
        out.push_back({key, module});
      }
    }
    std::sort(out.begin(), out.end(), [](const ResultSection& a, const ResultSection& b) {
      return a.key < b.key;
    });
    return out;
  }();
  return sections;
}

void write_envelope(const ScenarioResult& result, std::string_view key, io::JsonWriter& out) {
  if (key == "spec") {
    out.key("spec");
    write_spec(result.spec, out);
    return;
  }
  out.key("platforms");
  out.begin_array();
  for (std::size_t i = 0; i < result.platform_names.size(); ++i) {
    out.begin_object();
    out.key("chip");
    core::write_json(out, result.resolved_chips[i]);
    out.string("name", result.platform_names[i]);
    out.end_object();
  }
  out.end_array();
}

/// check_known_keys over the registry-derived key set.
void check_result_keys(const Json& json) {
  const std::vector<ResultSection>& sections = result_sections();
  for (const auto& [key, value] : json.as_object()) {
    const bool known =
        std::any_of(sections.begin(), sections.end(),
                    [&key](const ResultSection& section) { return section.key == key; });
    if (!known) {
      throw core::ConfigError("unknown key \"" + key + "\" in scenario result");
    }
  }
}

}  // namespace

void write_result(const ScenarioResult& result, io::JsonWriter& out, int threads) {
  out.begin_object();
  for (const ResultSection& section : result_sections()) {
    if (section.module == nullptr) {
      write_envelope(result, section.key, out);
    } else if (section.module->write_result != nullptr) {
      section.module->write_result(result, section.key, out, threads);
    }
  }
  out.end_object();
}

std::string result_bytes(const ScenarioResult& result, int indent) {
  std::string text;
  io::JsonWriter out(text, indent);
  write_result(result, out);
  out.finish();
  return text;
}

io::ByteSegments result_segments(const ScenarioResult& result, int threads) {
  io::JsonWriter out(2);
  write_result(result, out, threads);
  out.newline();
  return out.finish_segments();
}

std::string result_document(const ScenarioResult& result, int threads) {
  return result_segments(result, threads).str();
}

Json result_to_json(const ScenarioResult& result) {
  return io::written_json([&result](io::JsonWriter& out) { write_result(result, out); });
}

ScenarioResult result_from_json(const Json& json) {
  check_result_keys(json);
  ScenarioResult result;
  result.spec = spec_from_json(json.at("spec"));
  for (const Json& entry : json.at("platforms").as_array()) {
    core::check_known_keys(entry, "result platform", {"name", "chip"});
    result.platform_names.push_back(entry.at("name").as_string());
    result.resolved_chips.push_back(core::chip_from_json(entry.at("chip")));
  }
  for (const KindModule* module : all_kind_modules()) {
    if (module->result_from_json != nullptr) {
      module->result_from_json(json, result);
    }
  }
  return result;
}

bool operator==(const ScenarioResult& a, const ScenarioResult& b) {
  // Compare the canonical compact bytes, not the values: double == says
  // NaN != NaN, so a result carrying a NaN cell (e.g. a 0/0 ratio) would
  // never equal itself.  The writer encodes non-finite values as text
  // sentinels, making the canonical-bytes identity total.
  return result_bytes(a, 0) == result_bytes(b, 0);
}

// -- frames ---------------------------------------------------------------------

std::vector<report::ResultFrame> to_frames(const ScenarioResult& result) {
  std::vector<ResultFrame> frames;
  const KindModule& module = kind_module(result.spec.kind);
  if (module.to_frames != nullptr) {
    module.to_frames(result, frames);
  }
  return frames;
}

report::ResultFrame mc_samples_frame(const ScenarioResult& result) {
  if (!result.uncertainty) {
    throw std::logic_error("mc_samples_frame: result has no uncertainty payload");
  }
  const MonteCarloUq& uq = *result.uncertainty;
  ResultFrame frame;
  frame.name = "samples";
  frame.columns.push_back(Column{.name = "sample", .unit = "", .precision = 6});
  for (const std::string& platform : result.platform_names) {
    frame.columns.push_back(Column{.name = platform + "_total_kg", .unit = "",
                                   .precision = 6});
  }
  for (std::size_t k = 1; k < result.platform_names.size(); ++k) {
    frame.columns.push_back(Column{.name = result.platform_names[k] + "_over_" +
                                               result.platform_names[0] + "_ratio",
                                   .unit = "", .precision = 6});
  }
  std::vector<std::vector<double>> ratio_columns;
  for (std::size_t k = 1; k < uq.sample_totals_kg.size(); ++k) {
    ratio_columns.push_back(uq.ratio_samples(k));
  }
  const std::size_t samples = uq.sample_totals_kg.front().size();
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<Cell> row{Cell(static_cast<double>(i))};
    for (const std::vector<double>& totals : uq.sample_totals_kg) {
      row.emplace_back(totals[i]);
    }
    for (const std::vector<double>& ratios : ratio_columns) {
      row.emplace_back(ratios[i]);
    }
    frame.add_row(std::move(row));
  }
  return frame;
}

}  // namespace greenfpga::scenario
