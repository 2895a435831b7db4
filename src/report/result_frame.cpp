/// \file result_frame.cpp
/// The frame renderers: JSON / CSV (machine, round-trip precision) and
/// text / Markdown (human, significant-digit precision).

#include "report/result_frame.hpp"

#include <stdexcept>

#include "io/table.hpp"
#include "units/format.hpp"

namespace greenfpga::report {

namespace {

/// Human form of a cell at the column's precision ("-" for null).
std::string human_cell(const Cell& cell, const Column& column) {
  if (std::holds_alternative<std::nullptr_t>(cell)) {
    return "-";
  }
  if (const double* number = std::get_if<double>(&cell)) {
    return units::format_significant(*number, column.precision);
  }
  return std::get<std::string>(cell);
}

/// Machine form of a cell: shortest round-trip number, verbatim text,
/// empty for null.
std::string machine_cell(const Cell& cell) {
  if (std::holds_alternative<std::nullptr_t>(cell)) {
    return "";
  }
  if (const double* number = std::get_if<double>(&cell)) {
    return io::format_number(*number);
  }
  return std::get<std::string>(cell);
}

}  // namespace

void ResultFrame::add_row(std::vector<Cell> cells) {
  if (cells.size() != columns.size()) {
    throw std::invalid_argument("ResultFrame '" + name + "': row has " +
                                std::to_string(cells.size()) + " cells, expected " +
                                std::to_string(columns.size()));
  }
  rows.push_back(std::move(cells));
}

void ResultFrame::set_meta(std::string key, std::string value) {
  for (auto& [existing_key, existing_value] : metadata) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return;
    }
  }
  metadata.emplace_back(std::move(key), std::move(value));
}

std::string ResultFrame::column_header(std::size_t index) const {
  const Column& column = columns.at(index);
  return column.unit.empty() ? column.name : column.name + " [" + column.unit + "]";
}

io::Json frame_to_json(const ResultFrame& frame) {
  io::Json out = io::Json::object();
  out["name"] = frame.name;
  io::Json columns = io::Json::array();
  for (const Column& column : frame.columns) {
    io::Json entry = io::Json::object();
    entry["name"] = column.name;
    entry["unit"] = column.unit;
    columns.push_back(std::move(entry));
  }
  out["columns"] = std::move(columns);
  io::Json rows = io::Json::array();
  for (const std::vector<Cell>& row : frame.rows) {
    io::Json cells = io::Json::array();
    for (const Cell& cell : row) {
      if (std::holds_alternative<std::nullptr_t>(cell)) {
        cells.push_back(io::Json(nullptr));
      } else if (const double* number = std::get_if<double>(&cell)) {
        cells.push_back(*number);
      } else {
        cells.push_back(std::get<std::string>(cell));
      }
    }
    rows.push_back(std::move(cells));
  }
  out["rows"] = std::move(rows);
  // An array of [key, value] pairs, not an object: io::Json objects sort
  // their keys, which would lose the documented insertion order.
  io::Json metadata = io::Json::array();
  for (const auto& [key, value] : frame.metadata) {
    metadata.push_back(io::Json::array({io::Json(key), io::Json(value)}));
  }
  out["metadata"] = std::move(metadata);
  return out;
}

ResultFrame frame_from_json(const io::Json& json) {
  ResultFrame frame;
  frame.name = json.at("name").as_string();
  for (const io::Json& entry : json.at("columns").as_array()) {
    Column column;
    column.name = entry.at("name").as_string();
    column.unit = entry.at("unit").as_string();
    frame.columns.push_back(std::move(column));
  }
  for (const io::Json& row : json.at("rows").as_array()) {
    std::vector<Cell> cells;
    cells.reserve(row.size());
    for (const io::Json& cell : row.as_array()) {
      if (cell.is_null()) {
        cells.emplace_back(nullptr);
      } else if (cell.is_number()) {
        cells.emplace_back(cell.as_number());
      } else {
        cells.emplace_back(cell.as_string());
      }
    }
    frame.add_row(std::move(cells));
  }
  if (json.contains("metadata")) {
    for (const io::Json& entry : json.at("metadata").as_array()) {
      frame.metadata.emplace_back(entry.at(0).as_string(), entry.at(1).as_string());
    }
  }
  return frame;
}

io::CsvWriter frame_to_csv(const ResultFrame& frame) {
  io::CsvWriter csv;
  std::vector<std::string> header;
  header.reserve(frame.columns.size());
  for (std::size_t i = 0; i < frame.columns.size(); ++i) {
    header.push_back(frame.column_header(i));
  }
  csv.add_row(std::move(header));
  for (const std::vector<Cell>& row : frame.rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Cell& cell : row) {
      cells.push_back(machine_cell(cell));
    }
    csv.add_row(std::move(cells));
  }
  return csv;
}

std::string frame_to_table(const ResultFrame& frame) {
  std::string out;
  for (const auto& [key, value] : frame.metadata) {
    out += key + ": " + value + "\n";
  }
  io::TextTable table;
  std::vector<std::string> headers;
  headers.reserve(frame.columns.size());
  for (std::size_t i = 0; i < frame.columns.size(); ++i) {
    headers.push_back(frame.column_header(i));
  }
  table.set_headers(std::move(headers));
  for (const std::vector<Cell>& row : frame.rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      cells.push_back(human_cell(row[i], frame.columns[i]));
    }
    table.add_row(std::move(cells));
  }
  out += table.render();
  return out;
}

std::string frame_to_markdown(const ResultFrame& frame) {
  std::string out = "### " + frame.name + "\n\n|";
  for (std::size_t i = 0; i < frame.columns.size(); ++i) {
    out += " ";
    out += frame.column_header(i);
    out += " |";
  }
  out += "\n|";
  for (std::size_t i = 0; i < frame.columns.size(); ++i) {
    out += "---|";
  }
  out += "\n";
  for (const std::vector<Cell>& row : frame.rows) {
    out += "|";
    for (std::size_t i = 0; i < row.size(); ++i) {
      // Pipes inside cell text would split the Markdown column.
      std::string cell = human_cell(row[i], frame.columns[i]);
      std::string escaped;
      for (const char c : cell) {
        if (c == '|') {
          escaped += "\\|";
        } else if (c == '\n') {
          escaped += "<br>";
        } else {
          escaped.push_back(c);
        }
      }
      out += " " + escaped + " |";
    }
    out += "\n";
  }
  if (!frame.metadata.empty()) {
    out += "\n";
    for (const auto& [key, value] : frame.metadata) {
      out += "- " + key + ": " + value + "\n";
    }
  }
  return out;
}

}  // namespace greenfpga::report
