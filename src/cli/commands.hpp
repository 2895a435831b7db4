#ifndef GREENFPGA_CLI_COMMANDS_HPP
#define GREENFPGA_CLI_COMMANDS_HPP

/// \file commands.hpp
/// The `greenfpga` CLI commands as a library, so they are unit-testable
/// with captured streams; main.cpp is a thin argv shim.
///
/// Every command has the same shape -- `(context, args, out, err)`
/// returning its process exit code: 0 success, 1 runtime failure (bad
/// config content, model error), 2 usage error.  `CommandContext` carries
/// the global flags -- `--threads N` (engine worker count; falls back to
/// the GREENFPGA_THREADS environment variable, then hardware
/// concurrency), `--format {text,json,csv,md}` (output renderer) and
/// `--output <path>` (write the rendered output to a file; the `batch`
/// results directory) -- as an explicit value, so the command layer holds
/// no mutable globals and is safe to call concurrently from one process
/// (the `serve` daemon handles many requests at once).  `dispatch` parses
/// the global flags into a context, routes to the command, and maps
/// uncaught exceptions to exit code 1 with a message on `err`.
///
/// The kind commands (`sweep`, `nodes`, `mc`, `fleet`, `frontier`) are
/// rows of one table in commands.cpp that `dispatch` runs: a preset spec
/// whose flags alias spec keys, decoded by `scenario::spec_from_json`.
///
/// Commands parse arguments and assemble data; *rendering* lives in
/// `report::` (`render_result` / `render_frames` over the frame IR), so
/// no scenario kind is formatted here.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "report/result_render.hpp"

namespace greenfpga::cli {

/// The global flags of one invocation, threaded explicitly through every
/// command (no process-wide state).
struct CommandContext {
  /// Engine worker count; 0 = GREENFPGA_THREADS, else hardware
  /// concurrency (see scenario::Engine::default_threads).
  int threads = 0;
  report::OutputFormat format = report::OutputFormat::text;
  /// Output file path (for `batch`: the results directory).
  std::optional<std::string> output;
};

/// Print the usage text; returns exit code 2 (callers print usage on
/// errors) -- pass `error = false` for `--help`, which exits 0.
int print_usage(std::ostream& out, bool error = true);

/// `greenfpga run <spec.json> [--json <out.json>] [--csv <out.csv>]` --
/// evaluate any declarative scenario spec through the unified engine
/// (--csv exports per-sample Monte-Carlo totals; montecarlo kind only).
int run_spec(const CommandContext& context, const std::vector<std::string>& args,
             std::ostream& out, std::ostream& err);

/// `greenfpga serve [--port N] [--host ADDR] [--cache-capacity N]
/// [--max-connections N]` -- run the persistent HTTP evaluation daemon
/// (POST /v1/run, POST /v1/batch, GET /v1/platforms, GET /v1/stats,
/// GET /healthz) over a content-addressed result cache.  Prints the
/// listening address, then serves until the process is killed.
int run_serve(const CommandContext& context, const std::vector<std::string>& args,
              std::ostream& out, std::ostream& err);

/// `greenfpga bench [--filter RE] [--quick] [--list] [--out PATH]
/// [--compare BASELINE]... [--max-regression X]` -- run the registered
/// micro-benchmark cases (engine grid, Monte-Carlo sampler, batch pool,
/// JSON codec, result cache) through the dependency-free harness in
/// src/bench/.  `--out` writes one canonical BENCH_<group>.json per case
/// group (a directory path, or a single .json file when one group ran);
/// `--compare` loads baselines (file or directory of BENCH_*.json) and
/// exits 1 naming every case whose median regressed beyond
/// `--max-regression` (a factor; default 10).  `--quick` lowers
/// warmup/repetitions only -- workloads are fixed, so medians stay
/// comparable with full-mode baselines.
int run_bench(const CommandContext& context, const std::vector<std::string>& args,
              std::ostream& out, std::ostream& err);

/// `greenfpga compare <scenario.json> [--json <out.json>] [--markdown <out.md>]`.
int run_compare(const CommandContext& context, const std::vector<std::string>& args,
                std::ostream& out, std::ostream& err);

/// `greenfpga industry`.
int run_industry(const CommandContext& context, const std::vector<std::string>& args,
                 std::ostream& out, std::ostream& err);

/// `greenfpga figures` -- run every paper experiment and print the
/// headline crossovers next to the paper's reported values.
int run_figures(const CommandContext& context, const std::vector<std::string>& args,
                std::ostream& out, std::ostream& err);

/// `greenfpga dump-config`.
int run_dump_config(const CommandContext& context, const std::vector<std::string>& args,
                    std::ostream& out, std::ostream& err);

/// `greenfpga batch <manifest.json|directory> [--validate]` -- evaluate
/// many specs as one engine batch; writes per-spec result JSON plus an
/// aggregate index under the `context.output` directory (default
/// "batch_results").  `--validate` re-reads every emitted JSON and fails
/// unless it round-trips canonically.
int run_batch(const CommandContext& context, const std::vector<std::string>& args,
              std::ostream& out, std::ostream& err);

/// Full dispatch: `args` excludes argv[0].  Parses the global flags into
/// a `CommandContext`, then routes to the command.  Catches exceptions
/// and maps them to exit code 1 with a message on `err`.
int dispatch(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace greenfpga::cli

#endif  // GREENFPGA_CLI_COMMANDS_HPP
