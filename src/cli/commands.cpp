/// \file commands.cpp
/// The `greenfpga` subcommands as stream-parameterised entry points.
///
/// Every evaluating command builds a `scenario::ScenarioSpec` and runs it
/// through `scenario::Engine`; the spec path (`greenfpga run`) accepts the
/// same shape from a JSON file, so anything the CLI can do is also
/// expressible declaratively without recompiling.  Rendering is not done
/// here: results lower into `report::ResultFrame`s and the `--format`
/// renderers in `report::result_render` present them.

#include "cli/commands.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <regex>
#include <sstream>
#include <utility>

#include "bench/artifact.hpp"
#include "bench/compare.hpp"
#include "bench/harness.hpp"
#include "core/comparator.hpp"
#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "dse/frontier_spec.hpp"
#include "report/figure_writer.hpp"
#include "report/markdown_report.hpp"
#include "report/result_render.hpp"
#include "scenario/engine.hpp"
#include "scenario/fleet.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/result_io.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace greenfpga::cli {

namespace {

scenario::Engine make_engine(const CommandContext& context) {
  return scenario::Engine(scenario::EngineOptions{.threads = context.threads});
}

std::optional<device::Domain> parse_domain(const std::string& text) {
  if (text == "dnn") return device::Domain::dnn;
  if (text == "imgproc") return device::Domain::imgproc;
  if (text == "crypto") return device::Domain::crypto;
  return std::nullopt;
}

/// Run `render` against `--output` (if set) or `out`.  An unwritable
/// output path fails naming the flag and the value, matching the spec
/// parse-error style.
int emit(const CommandContext& context, const std::function<void(std::ostream&)>& render,
         std::ostream& out, std::ostream& err) {
  if (!context.output) {
    render(out);
    return 0;
  }
  const std::filesystem::path path(*context.output);
  if (path.has_parent_path()) {
    std::error_code ignored;
    std::filesystem::create_directories(path.parent_path(), ignored);
  }
  std::ofstream file(path);
  if (!file) {
    err << "--output: cannot write '" << *context.output << "'\n";
    return 1;
  }
  render(file);
  out << "wrote " << *context.output << "\n";
  return 0;
}

int emit_result(const CommandContext& context, const scenario::ScenarioResult& result,
                std::ostream& out, std::ostream& err) {
  return emit(
      context,
      [&result, &context](std::ostream& stream) {
        report::render_result(result, context.format, stream);
      },
      out, err);
}

int emit_frames(const CommandContext& context,
                std::span<const report::ResultFrame> frames, std::ostream& out,
                std::ostream& err) {
  return emit(
      context,
      [frames, &context](std::ostream& stream) {
        report::render_frames(frames, context.format, stream);
      },
      out, err);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream stream(text);
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

/// Default axis shape for one `--axes` entry of `greenfpga frontier`;
/// custom ranges go through `greenfpga run` with a frontier spec.
std::optional<dse::FrontierAxisSpec> frontier_axis_preset(const std::string& name) {
  const std::optional<dse::FrontierVariable> variable =
      dse::parse_frontier_variable(name);
  if (!variable) {
    return std::nullopt;
  }
  switch (*variable) {
    case dse::FrontierVariable::app_count:
      return dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1.0, 10.0,
                                           10);
    case dse::FrontierVariable::lifetime_years:
      return dse::FrontierAxisSpec::linear(dse::FrontierVariable::lifetime_years, 0.5,
                                           8.0, 10);
    case dse::FrontierVariable::volume:
      return dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e4, 1e7, 10);
    case dse::FrontierVariable::node:
      return dse::FrontierAxisSpec::node_list({});
  }
  return std::nullopt;
}

/// Write a result's canonical JSON file: the `--format json` bytes.
void write_result_file(const std::string& path, const scenario::ScenarioResult& result) {
  io::write_json_text(path, scenario::result_document(result));
}

/// Shared tail of `run` and `mc`: evaluate the spec, render per --format,
/// write the optional legacy machine-readable exports.
int run_and_emit(const CommandContext& context, const scenario::ScenarioSpec& spec,
                 const std::optional<std::string>& json_out,
                 const std::optional<std::string>& csv_out, std::ostream& out,
                 std::ostream& err) {
  const scenario::ScenarioResult result = make_engine(context).run(spec);
  const int code = emit_result(context, result, out, err);
  if (code != 0) {
    return code;
  }
  if (json_out) {
    write_result_file(*json_out, result);
    out << "wrote " << *json_out << "\n";
  }
  if (csv_out) {
    report::frame_to_csv(scenario::mc_samples_frame(result)).write_file(*csv_out);
    out << "wrote " << *csv_out << "\n";
  }
  return 0;
}

}  // namespace

int print_usage(std::ostream& out, bool error) {
  out << "GreenFPGA: lifecycle carbon-footprint comparison of FPGA and ASIC computing\n"
         "\n"
         "usage:\n"
         "  greenfpga [--threads N] [--format text|json|csv|md] [--output <path>]\n"
         "            <command> ...\n"
         "\n"
         "  greenfpga run <spec.json> [--json <out.json>] [--csv <out.csv>]\n"
         "      evaluate a declarative scenario spec through the unified engine;\n"
         "      kinds: "
      << scenario::kind_name_list()
      << "\n"
         "      (the registry is the source of truth for that list); see\n"
         "      examples/specs/ and docs/CLI.md for the spec shape (--csv exports\n"
         "      per-sample Monte-Carlo totals, sampling kinds only)\n"
         "  greenfpga serve [--port N] [--host ADDR] [--cache-capacity N]\n"
         "                  [--cache-shards N] [--cache-dir PATH]\n"
         "                  [--max-connections N] [--io-timeout-ms N]\n"
         "                  [--idle-timeout-ms N]\n"
         "      run the persistent HTTP/1.1 evaluation daemon: POST /v1/run and\n"
         "      /v1/batch take spec JSON and answer the canonical result JSON\n"
         "      (byte-identical to `run --format json`), served through a\n"
         "      content-addressed LRU result cache (GET /v1/stats for hit/miss\n"
         "      counters, GET /v1/platforms, GET /healthz; default port 8080,\n"
         "      --port 0 picks an ephemeral port, loopback-only by default)\n"
         "  greenfpga batch <manifest.json|directory> [--validate]\n"
         "      evaluate many specs as one batch on the worker pool; writes one\n"
         "      result JSON per spec plus an aggregate index to the --output\n"
         "      directory (default batch_results); --validate re-reads every\n"
         "      emitted JSON and fails unless it round-trips canonically\n"
         "  greenfpga bench [--filter RE] [--quick] [--list] [--out <path>]\n"
         "                  [--compare <baseline>]... [--max-regression X]\n"
         "      run the built-in micro-benchmark cases (engine grid, Monte-Carlo\n"
         "      sampler, batch pool, JSON codec, result cache); --out writes one\n"
         "      canonical BENCH_<group>.json per case group; --compare checks the\n"
         "      medians against checked-in baselines (file or directory) and exits\n"
         "      non-zero naming each case slower than --max-regression times its\n"
         "      baseline (default 10); --quick lowers repetitions only, so medians\n"
         "      stay comparable; --list prints the case registry\n"
         "  greenfpga frontier <dnn|imgproc|crypto> [--platforms a,b,...] [--axes x,y]\n"
         "                     [--objective total|embodied|operational] [--samples N]\n"
         "                     [--seed S] [--json <out.json>]\n"
         "      platform win-region DSE: evaluate every registry platform\n"
         "      (default asic,fpga,gpu,cpu) over a deployment grid (default\n"
         "      apps x volume; axes: apps, lifetime, volume, node), report the\n"
         "      per-cell winner, win fractions, breakeven boundary polylines, and\n"
         "      (with --samples) Monte-Carlo win confidence\n"
         "  greenfpga mc <dnn|imgproc|crypto> [--samples N] [--seed S]\n"
         "              [--csv <out.csv>] [--json <out.json>]\n"
         "      Monte-Carlo uncertainty quantification over the Table 1 parameter\n"
         "      distributions: percentile bands, win fractions and a ratio CDF\n"
         "  greenfpga fleet <dnn|imgproc|crypto> [--platforms a,b,...] [--horizon Y]\n"
         "                  [--utilization U] [--samples N] [--seed S]\n"
         "                  [--json <out.json>] [--csv <out.csv>]\n"
         "      mixed-platform datacenter fleet: size each platform's fleet to a\n"
         "      24-hour traffic trace served across regional grid profiles, with\n"
         "      FPGA reconfiguration amortisation; --samples adds Table 1\n"
         "      Monte-Carlo bands over the fleet totals\n"
         "  greenfpga compare <scenario.json> [--json <out.json>] [--markdown <out.md>]\n"
         "      evaluate a scenario file (see `greenfpga dump-config` for the shape)\n"
         "  greenfpga sweep <dnn|imgproc|crypto> <apps|lifetime|volume>\n"
         "      run one of the paper's sweep experiments on a built-in testcase\n"
         "  greenfpga industry\n"
         "      evaluate the Table 3 industry testcases (paper Figs. 10-11)\n"
         "  greenfpga nodes <dnn|imgproc|crypto>\n"
         "      rank fabrication nodes for the domain's FPGA by lifecycle CFP\n"
         "  greenfpga figures\n"
         "      run every paper experiment; print measured crossovers vs paper\n"
         "  greenfpga dump-config\n"
         "      print the calibrated paper-default model suite as JSON\n"
         "\n"
         "  --threads N sets the engine worker count (default: the\n"
         "  GREENFPGA_THREADS environment variable, else hardware concurrency).\n"
         "  --format selects the renderer: text (default), json (canonical result\n"
         "  JSON, byte-identical at any --threads), csv, md.\n"
         "  --output writes the rendered output to a file (for `batch`: the\n"
         "  results directory).\n";
  return error ? 2 : 0;
}

int run_spec(const CommandContext& context, const std::vector<std::string>& args,
            std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "run: missing spec file\n";
    return 2;
  }
  std::optional<std::string> json_out;
  std::optional<std::string> csv_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      json_out = args[i + 1];
      ++i;
    } else if (args[i] == "--csv" && i + 1 < args.size()) {
      csv_out = args[i + 1];
      ++i;
    } else {
      err << "run: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  // load_spec reports parse/validation errors with the spec path and the
  // offending key, so a bad file fails with an actionable message.
  const scenario::ScenarioSpec spec = scenario::load_spec(args[0]);
  // The kind's module says whether this spec produces per-sample totals
  // (montecarlo always; fleet only with mc_samples > 0).
  const scenario::KindModule& module = scenario::kind_module(spec.kind);
  if (csv_out && (module.sample_csv == nullptr || !module.sample_csv(spec))) {
    err << "run: --csv exports Monte-Carlo samples; spec '" << spec.name
        << "' has kind " << to_string(spec.kind) << "\n";
    return 2;
  }
  return run_and_emit(context, spec, json_out, csv_out, out, err);
}

namespace {

/// Strict bounded integer flag parse (trailing garbage and overflow
/// rejected), mirroring the global --threads rules.
std::optional<long> parse_flag_int(const std::string& value, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE ||
      parsed < lo || parsed > hi) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace

int run_serve(const CommandContext& context, const std::vector<std::string>& args,
              std::ostream& out, std::ostream& err) {
  serve::ServerOptions server_options;
  server_options.port = 8080;
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 8;
  std::string cache_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    if (args[i] == "--port" && has_value) {
      const auto port = parse_flag_int(args[i + 1], 0, 65535);
      if (!port) {
        err << "serve: invalid --port '" << args[i + 1] << "' (0..65535; 0 = ephemeral)\n";
        return 2;
      }
      server_options.port = static_cast<int>(*port);
      ++i;
    } else if (args[i] == "--host" && has_value) {
      server_options.host = args[i + 1];
      ++i;
    } else if (args[i] == "--cache-capacity" && has_value) {
      const auto capacity = parse_flag_int(args[i + 1], 1, 1'000'000'000);
      if (!capacity) {
        err << "serve: invalid --cache-capacity '" << args[i + 1] << "' (>= 1)\n";
        return 2;
      }
      cache_capacity = static_cast<std::size_t>(*capacity);
      ++i;
    } else if (args[i] == "--cache-shards" && has_value) {
      const auto shards = parse_flag_int(args[i + 1], 1, 4096);
      if (!shards) {
        err << "serve: invalid --cache-shards '" << args[i + 1] << "' (1..4096)\n";
        return 2;
      }
      cache_shards = static_cast<std::size_t>(*shards);
      ++i;
    } else if (args[i] == "--cache-dir" && has_value) {
      cache_dir = args[i + 1];
      if (cache_dir.empty()) {
        err << "serve: invalid --cache-dir '' (non-empty path)\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--io-timeout-ms" && has_value) {
      const auto timeout = parse_flag_int(args[i + 1], 0, 3'600'000);
      if (!timeout) {
        err << "serve: invalid --io-timeout-ms '" << args[i + 1]
            << "' (0..3600000; 0 disables)\n";
        return 2;
      }
      server_options.io_timeout_ms = static_cast<int>(*timeout);
      ++i;
    } else if (args[i] == "--idle-timeout-ms" && has_value) {
      const auto timeout = parse_flag_int(args[i + 1], 0, 86'400'000);
      if (!timeout) {
        err << "serve: invalid --idle-timeout-ms '" << args[i + 1]
            << "' (0..86400000; 0 disables)\n";
        return 2;
      }
      server_options.idle_timeout_ms = static_cast<int>(*timeout);
      ++i;
    } else if (args[i] == "--max-connections" && has_value) {
      const auto limit = parse_flag_int(args[i + 1], 1, 65536);
      if (!limit) {
        err << "serve: invalid --max-connections '" << args[i + 1] << "' (>= 1)\n";
        return 2;
      }
      server_options.max_connections = static_cast<int>(*limit);
      ++i;
    } else {
      err << "serve: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  std::optional<serve::ServeContext> serve_context;
  try {
    serve_context.emplace(scenario::EngineOptions{.threads = context.threads},
                          cache_capacity, cache_shards, cache_dir);
  } catch (const std::runtime_error& error) {
    err << "serve: " << error.what() << "\n";
    return 2;
  }
  serve::Server server(serve::make_router(*serve_context), server_options);
  server.start();
  // Flush before blocking: supervisors and the CI smoke step wait for
  // this line to know the port (essential with --port 0).
  out << "greenfpga serve listening on http://" << server_options.host << ":"
      << server.port() << " (cache capacity " << cache_capacity << " in "
      << cache_shards << " shard(s), "
      << serve_context->engine().threads() << " worker thread(s)"
      << (cache_dir.empty() ? std::string() : ", cache dir " + cache_dir) << ")"
      << std::endl;
  server.wait();
  return 0;
}

namespace {

/// Loads the baseline artifacts named by one `--compare` operand: a
/// single artifact file, or every `BENCH_*.json` directly inside a
/// directory (sorted, so output order is stable).
std::vector<bench::BenchArtifact> load_baselines(const std::string& target) {
  namespace fs = std::filesystem;
  std::vector<bench::BenchArtifact> baselines;
  if (fs::is_directory(target)) {
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(target)) {
      const std::string filename = entry.path().filename().string();
      if (entry.is_regular_file() && filename.starts_with("BENCH_") &&
          entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      baselines.push_back(bench::read_artifact_file(file.string()));
    }
  } else {
    baselines.push_back(bench::read_artifact_file(target));
  }
  return baselines;
}

}  // namespace

int run_bench(const CommandContext& context, const std::vector<std::string>& args,
              std::ostream& out, std::ostream& err) {
  std::optional<std::string> filter;
  bool quick = false;
  bool list = false;
  std::optional<std::string> out_path;
  std::vector<std::string> compare_paths;
  std::optional<double> max_regression;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    if (args[i] == "--filter" && has_value) {
      filter = args[i + 1];
      ++i;
    } else if (args[i] == "--quick") {
      quick = true;
    } else if (args[i] == "--list") {
      list = true;
    } else if (args[i] == "--out" && has_value) {
      out_path = args[i + 1];
      ++i;
    } else if (args[i] == "--compare" && has_value) {
      compare_paths.push_back(args[i + 1]);
      ++i;
    } else if (args[i] == "--max-regression" && has_value) {
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(args[i + 1].c_str(), &end);
      if (args[i + 1].empty() || end != args[i + 1].c_str() + args[i + 1].size() ||
          errno == ERANGE || !(parsed > 0.0)) {
        err << "bench: invalid --max-regression '" << args[i + 1]
            << "' (a factor > 0, e.g. 10)\n";
        return 2;
      }
      max_regression = parsed;
      ++i;
    } else {
      err << "bench: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  if (max_regression && compare_paths.empty()) {
    err << "bench: --max-regression requires --compare\n";
    return 2;
  }

  std::optional<std::regex> filter_re;
  if (filter) {
    try {
      filter_re.emplace(*filter);
    } catch (const std::regex_error& error) {
      err << "bench: invalid --filter regex '" << *filter << "': " << error.what()
          << "\n";
      return 2;
    }
  }
  const auto matches = [&filter_re](const std::string& id) {
    return !filter_re || std::regex_search(id, *filter_re);
  };

  std::vector<bench::BenchCase> cases;
  for (bench::BenchCase& bench_case : bench::builtin_cases()) {
    if (matches(bench_case.id())) {
      cases.push_back(std::move(bench_case));
    }
  }
  if (list) {
    for (const bench::BenchCase& bench_case : cases) {
      out << bench_case.id() << "\n    " << bench_case.description << "\n";
    }
    return 0;
  }
  if (cases.empty()) {
    err << "bench: no cases match --filter '" << filter.value_or("") << "'\n";
    return 2;
  }

  const bench::BenchOptions options =
      quick ? bench::BenchOptions::quick() : bench::BenchOptions{};
  const bench::Environment environment = bench::capture_environment();
  std::vector<bench::CaseResult> results;
  results.reserve(cases.size());
  for (const bench::BenchCase& bench_case : cases) {
    results.push_back(bench::run_case(bench_case, options));
  }

  // The measurement table, through the frame IR so --format/--output
  // dispatch like every other command.
  report::ResultFrame frame;
  frame.name = "bench";
  frame.columns = {report::Column{.name = "case", .unit = ""},
                   report::Column{.name = "reps", .unit = "", .precision = 3},
                   report::Column{.name = "iters", .unit = "", .precision = 6},
                   report::Column{.name = "median", .unit = "s", .precision = 4},
                   report::Column{.name = "p10", .unit = "s", .precision = 4},
                   report::Column{.name = "p90", .unit = "s", .precision = 4},
                   report::Column{.name = "mad", .unit = "s", .precision = 3},
                   report::Column{.name = "ops/s", .unit = "", .precision = 4},
                   report::Column{.name = "MB/s", .unit = "", .precision = 4}};
  for (const bench::CaseResult& result : results) {
    frame.add_row({report::Cell(result.id()),
                   report::Cell(static_cast<double>(result.repetitions)),
                   report::Cell(static_cast<double>(result.iterations)),
                   report::Cell(result.seconds.median), report::Cell(result.seconds.p10),
                   report::Cell(result.seconds.p90), report::Cell(result.seconds.mad),
                   report::Cell(result.ops_per_s),
                   result.bytes_per_s > 0.0
                       ? report::Cell(result.bytes_per_s / 1e6)
                       : report::Cell(nullptr)});
  }
  frame.set_meta("mode", quick ? "quick" : "full");
  frame.set_meta("compiler", environment.compiler);
  frame.set_meta("build_type", environment.build_type);
  frame.set_meta("cores", std::to_string(environment.cores));
  const std::vector<report::ResultFrame> frames{std::move(frame)};
  const int code = emit_frames(context, frames, out, err);
  if (code != 0) {
    return code;
  }

  const std::vector<bench::BenchArtifact> artifacts =
      bench::artifacts_from_results(results, environment);
  if (out_path) {
    namespace fs = std::filesystem;
    if (out_path->ends_with(".json")) {
      if (artifacts.size() != 1) {
        err << "bench: --out '" << *out_path << "' names a single file but "
            << artifacts.size()
            << " case groups ran; pass a directory or narrow --filter\n";
        return 2;
      }
      bench::write_artifact_file(*out_path, artifacts.front());
      out << "wrote " << *out_path << "\n";
    } else {
      for (const bench::BenchArtifact& artifact : artifacts) {
        const std::string path =
            (fs::path(*out_path) / bench::artifact_filename(artifact.group)).string();
        bench::write_artifact_file(path, artifact);
        out << "wrote " << path << "\n";
      }
    }
  }

  if (compare_paths.empty()) {
    return 0;
  }

  // Baseline comparison.  Whole groups the run did not execute are
  // skipped with a note (a directory baseline may track groups the
  // run's --filter excluded), and --filter applies to baseline cases
  // exactly as to the run, so a filtered run never reports
  // deliberately-skipped cases as missing.  Within a compared group,
  // a baseline case absent from the run is a failure.
  const double limit = max_regression.value_or(10.0);
  std::vector<bench::BenchArtifact> baselines;
  for (const std::string& target : compare_paths) {
    std::vector<bench::BenchArtifact> loaded = load_baselines(target);
    if (loaded.empty()) {
      err << "bench: no BENCH_*.json baselines found in '" << target << "'\n";
      return 2;
    }
    baselines.insert(baselines.end(), std::make_move_iterator(loaded.begin()),
                     std::make_move_iterator(loaded.end()));
  }
  std::vector<bench::BenchArtifact> compared;
  for (bench::BenchArtifact& baseline : baselines) {
    const bool executed =
        std::any_of(artifacts.begin(), artifacts.end(),
                    [&baseline](const bench::BenchArtifact& artifact) {
                      return artifact.group == baseline.group;
                    });
    if (!executed) {
      out << "compare: skipping baseline group '" << baseline.group
          << "' (not executed in this run)\n";
      continue;
    }
    std::erase_if(baseline.cases, [&matches](const bench::CaseResult& result) {
      return !matches(result.id());
    });
    if (!baseline.cases.empty()) {
      compared.push_back(std::move(baseline));
    }
  }
  const std::vector<bench::CaseComparison> rows =
      bench::compare_results(results, compared, limit);
  for (const bench::CaseComparison& row : rows) {
    out << "compare: " << to_string(row.verdict) << "  " << row.id;
    if (row.verdict == bench::CaseVerdict::ok ||
        row.verdict == bench::CaseVerdict::regressed) {
      out << "  " << units::format_significant(row.factor, 3) << "x of baseline ("
          << io::format_number(row.current_median) << " s vs "
          << io::format_number(row.baseline_median) << " s, limit "
          << units::format_significant(limit, 3) << "x)";
    } else if (row.verdict == bench::CaseVerdict::missing) {
      out << "  in baseline but not executed";
    } else {
      out << "  no baseline yet";
    }
    out << "\n";
  }
  bool failed = false;
  for (const bench::CaseComparison& row : rows) {
    if (row.verdict == bench::CaseVerdict::regressed) {
      failed = true;
      err << "bench: case '" << row.id << "' regressed: median "
          << io::format_number(row.current_median) << " s vs baseline "
          << io::format_number(row.baseline_median) << " s ("
          << units::format_significant(row.factor, 3) << "x > limit "
          << units::format_significant(limit, 3) << "x)\n";
    } else if (row.verdict == bench::CaseVerdict::missing) {
      failed = true;
      err << "bench: case '" << row.id
          << "' is in the baseline but was not executed (renamed or removed? "
             "regenerate the baseline deliberately)\n";
    }
  }
  if (failed) {
    return 1;
  }
  out << "compare: all " << rows.size() << " case(s) within "
      << units::format_significant(limit, 3) << "x of baseline\n";
  return 0;
}

int run_frontier(const CommandContext& context, const std::vector<std::string>& args,
                 std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "frontier: expected <dnn|imgproc|crypto> [--platforms a,b,...] [--axes x,y]"
           " [--objective total|embodied|operational] [--samples N] [--seed S]"
           " [--json <out.json>]\n";
    return 2;
  }
  const auto domain = parse_domain(args[0]);
  if (!domain) {
    err << "frontier: unknown domain '" << args[0] << "'\n";
    return 2;
  }
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::frontier, *domain);
  std::vector<std::string> platforms{"asic", "fpga", "gpu", "cpu"};
  std::optional<std::string> json_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    if (args[i] == "--platforms" && has_value) {
      platforms = split_csv(args[i + 1]);
      if (platforms.size() < 2) {
        err << "frontier: --platforms needs at least two comma-separated names\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--axes" && has_value) {
      spec.frontier.axes.clear();
      for (const std::string& name : split_csv(args[i + 1])) {
        const auto axis = frontier_axis_preset(name);
        if (!axis) {
          err << "frontier: unknown axis '" << name
              << "' (apps, lifetime, volume, node)\n";
          return 2;
        }
        spec.frontier.axes.push_back(*axis);
      }
      ++i;
    } else if (args[i] == "--objective" && has_value) {
      const auto objective = dse::parse_frontier_objective(args[i + 1]);
      if (!objective) {
        err << "frontier: unknown --objective '" << args[i + 1]
            << "' (total, embodied, operational)\n";
        return 2;
      }
      spec.frontier.objective = *objective;
      ++i;
    } else if (args[i] == "--samples" && has_value) {
      io::Json value = io::Json::object();
      try {
        value["samples"] = io::parse_json(args[i + 1]);
        spec.frontier.confidence_samples =
            static_cast<int>(core::int_field_or(value, "samples", 0, 0, 1'000'000));
      } catch (const std::exception& error) {
        err << "frontier: invalid --samples '" << args[i + 1] << "': " << error.what()
            << "\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--seed" && has_value) {
      io::Json value = io::Json::object();
      try {
        value["seed"] = io::parse_json(args[i + 1]);
        spec.frontier.seed =
            static_cast<unsigned>(core::int_field_or(value, "seed", 0, 0, 4294967295LL));
      } catch (const std::exception& error) {
        err << "frontier: invalid --seed '" << args[i + 1] << "': " << error.what()
            << "\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--json" && has_value) {
      json_out = args[i + 1];
      ++i;
    } else {
      err << "frontier: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  spec.platforms.clear();
  std::string joined;
  for (const std::string& name : platforms) {
    spec.platforms.push_back(scenario::PlatformRef{.name = name, .chip = std::nullopt});
    joined += (joined.empty() ? "" : " vs ") + name;
  }
  spec.name = to_string(*domain) + " platform frontier: " + joined;
  return run_and_emit(context, spec, json_out, std::nullopt, out, err);
}

int run_mc(const CommandContext& context, const std::vector<std::string>& args,
          std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "mc: expected <domain> [--samples N] [--seed S] [--csv <out.csv>] "
           "[--json <out.json>]\n";
    return 2;
  }
  const auto domain = parse_domain(args[0]);
  if (!domain) {
    err << "mc: unknown domain '" << args[0] << "'\n";
    return 2;
  }
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::montecarlo, *domain);
  spec.name = to_string(*domain) + " Monte-Carlo uncertainty";
  std::optional<std::string> json_out;
  std::optional<std::string> csv_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    if (args[i] == "--samples" && has_value) {
      // Same strict range-guarded read as the JSON path: int_field_or
      // rejects junk instead of silently truncating.
      io::Json value = io::Json::object();
      try {
        value["samples"] = io::parse_json(args[i + 1]);
        spec.montecarlo.samples = static_cast<int>(
            core::int_field_or(value, "samples", 0, 1, 10'000'000));
      } catch (const std::exception& error) {
        err << "mc: invalid --samples '" << args[i + 1] << "': " << error.what() << "\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--seed" && has_value) {
      io::Json value = io::Json::object();
      try {
        value["seed"] = io::parse_json(args[i + 1]);
        spec.montecarlo.seed = static_cast<unsigned>(
            core::int_field_or(value, "seed", 0, 0, 4294967295LL));
      } catch (const std::exception& error) {
        err << "mc: invalid --seed '" << args[i + 1] << "': " << error.what() << "\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--csv" && has_value) {
      csv_out = args[i + 1];
      ++i;
    } else if (args[i] == "--json" && has_value) {
      json_out = args[i + 1];
      ++i;
    } else {
      err << "mc: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  return run_and_emit(context, spec, json_out, csv_out, out, err);
}

int run_fleet(const CommandContext& context, const std::vector<std::string>& args,
              std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "fleet: expected <dnn|imgproc|crypto> [--platforms a,b,...] [--horizon Y]"
           " [--utilization U] [--samples N] [--seed S] [--json <out.json>]"
           " [--csv <out.csv>]\n";
    return 2;
  }
  const auto domain = parse_domain(args[0]);
  if (!domain) {
    err << "fleet: unknown domain '" << args[0] << "'\n";
    return 2;
  }
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::fleet, *domain);
  scenario::FleetSpec& fleet = *spec.fleet;
  std::optional<std::string> json_out;
  std::optional<std::string> csv_out;
  const auto parse_flag_double = [](const std::string& value) -> std::optional<double> {
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
      return std::nullopt;
    }
    return parsed;
  };
  std::vector<std::string> platforms;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    if (args[i] == "--platforms" && has_value) {
      platforms = split_csv(args[i + 1]);
      if (platforms.size() < 2) {
        err << "fleet: --platforms needs at least two comma-separated names\n";
        return 2;
      }
      ++i;
    } else if (args[i] == "--horizon" && has_value) {
      const auto horizon = parse_flag_double(args[i + 1]);
      if (!horizon || !(*horizon > 0.0)) {
        err << "fleet: invalid --horizon '" << args[i + 1] << "' (years > 0)\n";
        return 2;
      }
      fleet.horizon_years = *horizon;
      ++i;
    } else if (args[i] == "--utilization" && has_value) {
      const auto utilization = parse_flag_double(args[i + 1]);
      if (!utilization || !(*utilization > 0.0) || !(*utilization <= 1.0)) {
        err << "fleet: invalid --utilization '" << args[i + 1] << "' (0 < U <= 1)\n";
        return 2;
      }
      fleet.utilization = *utilization;
      ++i;
    } else if (args[i] == "--samples" && has_value) {
      const auto samples = parse_flag_int(args[i + 1], 0, 10'000'000);
      if (!samples) {
        err << "fleet: invalid --samples '" << args[i + 1] << "' (0..10000000)\n";
        return 2;
      }
      fleet.mc_samples = static_cast<int>(*samples);
      ++i;
    } else if (args[i] == "--seed" && has_value) {
      const auto seed = parse_flag_int(args[i + 1], 0, 4294967295LL);
      if (!seed) {
        err << "fleet: invalid --seed '" << args[i + 1] << "' (0..4294967295)\n";
        return 2;
      }
      spec.montecarlo.seed = static_cast<unsigned>(*seed);
      ++i;
    } else if (args[i] == "--json" && has_value) {
      json_out = args[i + 1];
      ++i;
    } else if (args[i] == "--csv" && has_value) {
      csv_out = args[i + 1];
      ++i;
    } else {
      err << "fleet: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  if (csv_out && fleet.mc_samples <= 0) {
    err << "fleet: --csv exports Monte-Carlo samples; pass --samples N (> 0)\n";
    return 2;
  }
  std::string joined;
  for (const std::string& name : platforms) {
    spec.platforms.push_back(scenario::PlatformRef{.name = name, .chip = std::nullopt});
    joined += (joined.empty() ? "" : " + ") + name;
  }
  spec.name = to_string(*domain) + " datacenter fleet" +
              (joined.empty() ? std::string() : ": " + joined);
  return run_and_emit(context, spec, json_out, csv_out, out, err);
}

int run_compare(const CommandContext& context, const std::vector<std::string>& args,
               std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "compare: missing scenario file\n";
    return 2;
  }
  std::optional<std::string> json_out;
  std::optional<std::string> markdown_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      json_out = args[i + 1];
      ++i;
    } else if (args[i] == "--markdown" && i + 1 < args.size()) {
      markdown_out = args[i + 1];
      ++i;
    } else {
      err << "compare: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }

  const core::ScenarioConfig scenario = core::load_scenario(args[0]);
  scenario::ScenarioSpec spec;
  spec.name = scenario.name;
  spec.kind = scenario::ScenarioKind::compare;
  spec.suite = scenario.suite;
  spec.platforms = {scenario::PlatformRef{.name = "asic", .chip = scenario.asic},
                    scenario::PlatformRef{.name = "fpga", .chip = scenario.fpga}};
  spec.schedule.explicit_schedule = scenario.schedule;
  const scenario::ScenarioResult result = make_engine(context).run(spec);
  const core::Comparison comparison = result.comparison();

  int code;
  if (context.format == report::OutputFormat::text) {
    // The classic component-stack view plus the verdict line.
    code = emit(
        context,
        [&](std::ostream& stream) {
          stream << "== " << scenario.name << " ==\n";
          const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
              {"ASIC", comparison.asic.total},
              {"FPGA", comparison.fpga.total},
          };
          stream << report::breakdown_table(platforms) << "FPGA:ASIC ratio "
                 << units::format_significant(comparison.ratio(), 4)
                 << " -> greener platform: " << to_string(comparison.verdict()) << "\n\n";
        },
        out, err);
  } else {
    code = emit_result(context, result, out, err);
  }
  if (code != 0) {
    return code;
  }

  if (json_out) {
    io::Json report = io::Json::object();
    report["scenario"] = scenario.name;
    report["asic"] = core::to_json(comparison.asic);
    report["fpga"] = core::to_json(comparison.fpga);
    report["ratio"] = comparison.ratio();
    report["greener"] = to_string(comparison.verdict());
    io::write_json_file(*json_out, report);
    out << "wrote " << *json_out << "\n";
  }
  if (markdown_out) {
    report::MarkdownReportInputs inputs;
    inputs.scenario = scenario;
    inputs.comparison = comparison;
    // The same platforms and schedule as a sensitivity spec: 128
    // Monte-Carlo samples over the Table 1 ranges.
    scenario::ScenarioSpec uq = spec;
    uq.kind = scenario::ScenarioKind::sensitivity;
    uq.sensitivity = {.run_tornado = false,
                      .run_monte_carlo = true,
                      .samples = 128,
                      .seed = 42,
                      .ranges = scenario::table1_ranges()};
    inputs.uncertainty = *make_engine(context).run(uq).monte_carlo;
    std::ofstream file(*markdown_out);
    if (!file) {
      err << "compare: cannot write '" << *markdown_out << "'\n";
      return 1;
    }
    file << report::render_markdown_report(inputs);
    out << "wrote " << *markdown_out << "\n";
  }
  return 0;
}

int run_sweep(const CommandContext& context, const std::vector<std::string>& args,
             std::ostream& out, std::ostream& err) {
  if (args.size() != 2) {
    err << "sweep: expected <domain> <variable>\n";
    return 2;
  }
  const auto domain = parse_domain(args[0]);
  if (!domain) {
    err << "sweep: unknown domain '" << args[0] << "'\n";
    return 2;
  }
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, *domain);
  if (args[1] == "apps") {
    spec.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 12, 12)};
  } else if (args[1] == "lifetime") {
    spec.axes = {
        scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5, 24)};
  } else if (args[1] == "volume") {
    spec.axes = {scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 25)};
  } else {
    err << "sweep: unknown variable '" << args[1] << "'\n";
    return 2;
  }
  spec.name = to_string(*domain) + " sweep over " + spec.axes.front().label();
  return emit_result(context, make_engine(context).run(spec), out, err);
}

int run_industry(const CommandContext& context, const std::vector<std::string>& args,
                 std::ostream& out, std::ostream& err) {
  if (!args.empty()) {
    err << "industry: unexpected argument '" << args.front() << "'\n";
    return 2;
  }
  const core::LifecycleModel model(core::industry_suite());

  // Fig. 10 setup: each FPGA runs 6 years / 3 applications / 1M volume.
  workload::Application fpga_app;
  fpga_app.name = "industry-fpga-app";
  fpga_app.lifetime = 2.0 * units::unit::years;
  fpga_app.volume = 1e6;
  const workload::Schedule fpga_schedule = workload::homogeneous_schedule(3, fpga_app);

  // Fig. 11 setup: one 6-year application, never reprogrammed.
  workload::Application asic_app;
  asic_app.name = "industry-asic-app";
  asic_app.lifetime = 6.0 * units::unit::years;
  asic_app.volume = 1e6;
  const workload::Schedule asic_schedule{asic_app};

  std::vector<std::pair<std::string, core::CfpBreakdown>> rows;
  for (const device::ChipSpec& fpga : {device::industry_fpga1(), device::industry_fpga2()}) {
    rows.emplace_back(fpga.name, model.evaluate_fpga(fpga, fpga_schedule).total);
  }
  for (const device::ChipSpec& asic : {device::industry_asic1(), device::industry_asic2()}) {
    rows.emplace_back(asic.name, model.evaluate_asic(asic, asic_schedule).total);
  }
  const std::vector<report::ResultFrame> frames{
      report::breakdown_frame("industry", rows)};
  return emit(
      context,
      [&](std::ostream& stream) {
        if (context.format == report::OutputFormat::text) {
          stream << "== Industry testcases (Table 3; FPGAs: 6 y / 3 apps / 1M; "
                    "ASICs: 6 y / 1M) ==\n"
                 << report::breakdown_table(rows);
        } else {
          report::render_frames(frames, context.format, stream);
        }
      },
      out, err);
}

int run_nodes(const CommandContext& context, const std::vector<std::string>& args,
             std::ostream& out, std::ostream& err) {
  if (args.size() != 1) {
    err << "nodes: expected <domain>\n";
    return 2;
  }
  const auto domain = parse_domain(args[0]);
  if (!domain) {
    err << "nodes: unknown domain '" << args[0] << "'\n";
    return 2;
  }
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::node_dse, *domain);
  spec.name = "node ranking for the " + to_string(*domain) +
              " FPGA (paper schedule: 5 apps x 2 y x 1M)";
  return emit_result(context, make_engine(context).run(spec), out, err);
}

int run_figures(const CommandContext& context, const std::vector<std::string>& args,
                std::ostream& out, std::ostream& err) {
  if (!args.empty()) {
    err << "figures: unexpected argument '" << args.front() << "'\n";
    return 2;
  }
  const scenario::Engine engine = make_engine(context);
  const auto sweep_series = [&](device::Domain domain, scenario::AxisSpec axis) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, domain);
    spec.axes = {std::move(axis)};
    return engine.run(spec).sweep_series();
  };

  report::ResultFrame frame;
  frame.name = "paper-vs-measured";
  frame.columns = {report::Column{.name = "experiment", .unit = ""},
                   report::Column{.name = "domain", .unit = ""},
                   report::Column{.name = "paper", .unit = ""},
                   report::Column{.name = "measured", .unit = ""}};
  const auto fmt = [](const std::optional<double>& x) {
    return x ? units::format_significant(*x, 4) : std::string("none");
  };

  for (const device::Domain domain : device::all_domains()) {
    const auto fig4 = sweep_series(
        domain, scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 16, 16));
    const auto a2f = first_crossover(fig4.crossovers(), scenario::CrossoverKind::a2f);
    const char* paper_a2f = domain == device::Domain::dnn       ? "~6"
                            : domain == device::Domain::imgproc ? "~12 (past 8)"
                                                                : "1 (immediate)";
    frame.add_row({report::Cell(std::string("Fig. 4 A2F [apps]")),
                   report::Cell(to_string(domain)), report::Cell(std::string(paper_a2f)),
                   report::Cell(fmt(a2f))});

    const auto fig5 = sweep_series(
        domain,
        scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5, 47));
    const auto f2a_t = first_crossover(fig5.crossovers(), scenario::CrossoverKind::f2a);
    const char* paper_f2a_t = domain == device::Domain::dnn       ? "~1.6"
                              : domain == device::Domain::imgproc ? "none (ASIC)"
                                                                  : "none (FPGA)";
    frame.add_row({report::Cell(std::string("Fig. 5 F2A [years]")),
                   report::Cell(to_string(domain)), report::Cell(std::string(paper_f2a_t)),
                   report::Cell(fmt(f2a_t))});

    const auto fig6 = sweep_series(
        domain, scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 41));
    const auto f2a_v = first_crossover(fig6.crossovers(), scenario::CrossoverKind::f2a);
    const char* paper_f2a_v = domain == device::Domain::dnn       ? "~2e6"
                              : domain == device::Domain::imgproc ? "~3e5"
                                                                  : "none (FPGA)";
    frame.add_row({report::Cell(std::string("Fig. 6 F2A [units]")),
                   report::Cell(to_string(domain)), report::Cell(std::string(paper_f2a_v)),
                   report::Cell(fmt(f2a_v))});
  }

  scenario::ScenarioSpec fig2_spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::compare, device::Domain::dnn);
  fig2_spec.schedule.app_count = 10;
  const double fig2 = engine.run(fig2_spec).comparison().ratio();
  frame.add_row({report::Cell(std::string("Fig. 2 FPGA saving at 10 apps")),
                 report::Cell(std::string("DNN")), report::Cell(std::string("~25 %")),
                 report::Cell(units::format_significant(100.0 * (1.0 - fig2), 4) + " %")});

  const std::vector<report::ResultFrame> frames{std::move(frame)};
  return emit(
      context,
      [&](std::ostream& stream) {
        if (context.format == report::OutputFormat::text) {
          stream << "== paper-vs-measured headline summary (see EXPERIMENTS.md for "
                    "analysis) ==\n";
        }
        report::render_frames(frames, context.format, stream);
      },
      out, err);
}

int run_dump_config(const CommandContext& context, const std::vector<std::string>& args,
                    std::ostream& out, std::ostream& err) {
  if (!args.empty()) {
    err << "dump-config: unexpected argument '" << args.front() << "'\n";
    return 2;
  }
  if (context.format != report::OutputFormat::text &&
      context.format != report::OutputFormat::json) {
    err << "dump-config: --format " << to_string(context.format)
        << " not supported (the dump is JSON; use text or json)\n";
    return 2;
  }
  io::Json scenario = io::Json::object();
  scenario["name"] = "example scenario (edit me)";
  scenario["suite"] = core::to_json(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  scenario["asic"] = core::to_json(testcase.asic);
  scenario["fpga"] = core::to_json(testcase.fpga);
  scenario["schedule"] = core::to_json(core::paper_schedule(device::Domain::dnn));
  return emit(context,
              [&](std::ostream& stream) {
                std::string text;
                scenario.dump_to(text);
                text.push_back('\n');
                stream << text;
              },
              out, err);
}

int run_batch(const CommandContext& context, const std::vector<std::string>& args,
             std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "batch: expected <manifest.json|directory> [--validate]\n";
    return 2;
  }
  bool validate = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--validate") {
      validate = true;
    } else {
      err << "batch: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }

  namespace fs = std::filesystem;
  const fs::path target(args[0]);

  // Collect and parse the spec files (parse errors name the offending
  // file): every *.json in a directory -- each read once; manifests,
  // i.e. objects with a "specs" key, are skipped -- or the manifest's
  // listed paths, resolved relative to the manifest.
  std::vector<fs::path> spec_paths;
  std::vector<scenario::ScenarioSpec> specs;
  if (fs::is_directory(target)) {
    std::vector<fs::path> candidates;
    for (const fs::directory_entry& entry : fs::directory_iterator(target)) {
      if (entry.path().extension() == ".json" && entry.is_regular_file()) {
        candidates.push_back(entry.path());
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const fs::path& path : candidates) {
      const io::Json parsed = io::parse_json_file(path.string());
      if (parsed.is_object() && parsed.contains("specs")) {
        continue;  // a manifest living next to its specs
      }
      specs.push_back(scenario::load_spec_json(parsed, path.string()));
      spec_paths.push_back(path);
    }
  } else {
    const io::Json manifest = io::parse_json_file(target.string());
    core::check_known_keys(manifest, "batch manifest '" + target.string() + "'",
                           {"name", "specs"});
    for (const io::Json& entry : manifest.at("specs").as_array()) {
      const fs::path listed(entry.as_string());
      spec_paths.push_back(listed.is_absolute() ? listed
                                                : target.parent_path() / listed);
      specs.push_back(scenario::load_spec(spec_paths.back().string()));
    }
  }
  if (spec_paths.empty()) {
    err << "batch: no scenario specs found in '" << args[0] << "'\n";
    return 2;
  }

  const std::vector<scenario::ScenarioResult> results =
      make_engine(context).run_batch(specs);

  // Per-spec result JSON under the output directory, named after the spec
  // file (collisions get a numeric suffix so nothing is overwritten;
  // "index.json" is reserved for the aggregate index written below).
  const std::string out_dir = context.output.value_or("batch_results");
  std::vector<std::string> taken{"index.json"};
  std::vector<std::string> filenames;
  filenames.reserve(results.size());
  for (const fs::path& path : spec_paths) {
    std::string stem = path.stem().string();
    std::string candidate = stem + ".json";
    int suffix = 2;
    while (std::find(taken.begin(), taken.end(), candidate) != taken.end()) {
      candidate = stem + "-" + std::to_string(suffix++) + ".json";
    }
    taken.push_back(candidate);
    filenames.push_back(std::move(candidate));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    write_result_file((fs::path(out_dir) / filenames[i]).string(), results[i]);
  }

  if (validate) {
    for (const std::string& filename : filenames) {
      const std::string path = (fs::path(out_dir) / filename).string();
      const io::Json written = io::parse_json_file(path);
      // Byte-compare the canonical compact forms: the file as read back
      // against the result it decodes to, written afresh.
      if (written.dump(0) !=
          scenario::result_bytes(scenario::result_from_json(written), 0)) {
        err << "batch: result '" << path << "' failed the canonical round-trip\n";
        return 1;
      }
    }
  }

  // Aggregate index: one row per spec with its headline numbers and the
  // result file it lowered into.
  report::ResultFrame index;
  index.name = "batch";
  index.columns = {report::Column{.name = "spec", .unit = ""},
                   report::Column{.name = "scenario", .unit = ""},
                   report::Column{.name = "kind", .unit = ""},
                   report::Column{.name = "domain", .unit = ""},
                   report::Column{.name = "platforms", .unit = "", .precision = 4},
                   report::Column{.name = "points", .unit = "", .precision = 6},
                   report::Column{.name = "baseline total", .unit = "t CO2e",
                                  .precision = 5},
                   report::Column{.name = "ratio", .unit = "", .precision = 4},
                   report::Column{.name = "result", .unit = ""}};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const scenario::ScenarioResult& result = results[i];
    report::Cell total(nullptr);
    report::Cell ratio(nullptr);
    if (!result.points.empty()) {
      total = result.points.front().platforms.front().total.total().in(
          units::unit::t_co2e);
      if (result.points.front().platforms.size() > 1) {
        ratio = result.points.front().ratio(1);
      }
    }
    index.add_row({report::Cell(spec_paths[i].filename().string()),
                   report::Cell(result.spec.name),
                   report::Cell(to_string(result.spec.kind)),
                   report::Cell(to_string(result.spec.domain)),
                   report::Cell(static_cast<double>(result.platform_names.size())),
                   report::Cell(static_cast<double>(result.points.size())), total, ratio,
                   report::Cell(filenames[i])});
  }
  io::write_json_file((fs::path(out_dir) / "index.json").string(),
                      report::frame_to_json(index));

  const std::vector<report::ResultFrame> frames{std::move(index)};
  report::render_frames(frames, context.format, out);
  if (context.format == report::OutputFormat::text) {
    // Keep the machine formats pure: the summary line is text-only.
    out << "wrote " << results.size() << " result(s) + index.json to " << out_dir
        << "\n";
  }
  return 0;
}

int dispatch(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  // Strip the global flags (valid anywhere before/after the command name)
  // into the context handed to the command body.
  CommandContext context;
  std::vector<std::string> rest;
  rest.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads") {
      if (i + 1 >= args.size()) {
        err << "--threads: missing worker count\n";
        return 2;
      }
      // The GREENFPGA_THREADS environment path's parser.
      const std::optional<int> parsed = scenario::Engine::parse_threads(args[i + 1]);
      if (!parsed) {
        err << "--threads: invalid worker count '" << args[i + 1] << "'\n";
        return 2;
      }
      context.threads = *parsed;
      ++i;
    } else if (args[i] == "--format") {
      if (i + 1 >= args.size()) {
        err << "--format: missing format (text, json, csv, md)\n";
        return 2;
      }
      const auto format = report::parse_output_format(args[i + 1]);
      if (!format) {
        err << "--format: unknown format '" << args[i + 1]
            << "' (text, json, csv, md)\n";
        return 2;
      }
      context.format = *format;
      ++i;
    } else if (args[i] == "--output") {
      if (i + 1 >= args.size()) {
        err << "--output: missing path\n";
        return 2;
      }
      context.output = args[i + 1];
      ++i;
    } else {
      rest.push_back(args[i]);
    }
  }

  if (rest.empty()) {
    return print_usage(err);
  }
  if (rest[0] == "--help" || rest[0] == "-h" || rest[0] == "help") {
    return print_usage(out, /*error=*/false);
  }
  try {
    const std::string command = rest[0];
    rest.erase(rest.begin());
    if (command == "run") {
      return run_spec(context, rest, out, err);
    }
    if (command == "serve") {
      return run_serve(context, rest, out, err);
    }
    if (command == "batch") {
      return run_batch(context, rest, out, err);
    }
    if (command == "bench") {
      return run_bench(context, rest, out, err);
    }
    if (command == "frontier") {
      return run_frontier(context, rest, out, err);
    }
    if (command == "mc") {
      return run_mc(context, rest, out, err);
    }
    if (command == "fleet") {
      return run_fleet(context, rest, out, err);
    }
    if (command == "compare") {
      return run_compare(context, rest, out, err);
    }
    if (command == "sweep") {
      return run_sweep(context, rest, out, err);
    }
    if (command == "industry") {
      return run_industry(context, rest, out, err);
    }
    if (command == "nodes") {
      return run_nodes(context, rest, out, err);
    }
    if (command == "figures") {
      return run_figures(context, rest, out, err);
    }
    if (command == "dump-config") {
      return run_dump_config(context, rest, out, err);
    }
    err << "unknown command '" << command << "'\n";
    return print_usage(err);
  } catch (const std::exception& error) {
    err << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace greenfpga::cli
