#ifndef GREENFPGA_BENCH_HARNESS_HPP
#define GREENFPGA_BENCH_HARNESS_HPP

/// \file harness.hpp
/// A dependency-free micro-benchmark harness with a case registry.
///
/// The repo tracks its hot paths (engine grid, Monte-Carlo sampler, batch
/// pool, JSON codec, result cache) as first-class artifacts: `greenfpga
/// bench` runs the registered cases and emits one canonical
/// `BENCH_<group>.json` per case group (see bench/artifact.hpp), which is
/// checked in as the performance baseline and enforced by CI
/// (bench/compare.hpp).  Unlike the Google-Benchmark `bench/` drivers,
/// this harness has no external dependency, so timings exist on every
/// machine that can build the library.
///
/// Timing model: a case's `setup` runs once (untimed) and returns the
/// operation closure; the harness then runs `warmup` untimed batches
/// followed by `repetitions` timed batches of `iterations` operations
/// each, reading the (injectable) nanosecond clock once before and once
/// after every timed batch.  Each batch yields one per-operation seconds
/// sample; the robust summary over those samples (bench/stats.hpp) is the
/// case's result.  `iterations > 1` amortises clock overhead for
/// sub-microsecond operations.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/stats.hpp"

namespace greenfpga::bench {

/// What a case's setup hands the timing loop.
struct PreparedCase {
  /// One operation; called `iterations` times per timed batch.
  std::function<void()> op;
  /// Operations per timed batch (>= 1 enforced); raise it until one batch
  /// comfortably exceeds clock granularity.
  std::int64_t iterations = 1;
  /// Bytes consumed or produced per operation; > 0 derives bytes/s.
  double bytes_per_op = 0.0;
};

/// One registered micro-benchmark case.  Its artifact identity is
/// `group/name`: the group names the BENCH_<group>.json file, the name
/// the case within it.
struct BenchCase {
  std::string group;
  std::string name;
  std::string description;
  /// Untimed one-time setup returning the operation to time.
  std::function<PreparedCase()> setup;

  /// The artifact/compare identity, "group/name".
  [[nodiscard]] std::string id() const { return group + "/" + name; }
};

/// Harness knobs.  `--quick` keeps every case's workload identical (so
/// medians stay comparable against full-mode baselines) and only lowers
/// warmup/repetitions, trading statistical quality for wall-clock time.
struct BenchOptions {
  int warmup = 2;
  int repetitions = 15;
  /// Nanosecond clock; nullptr = std::chrono::steady_clock.  Injectable
  /// so tests can pin the accounting with a scripted clock.
  std::function<std::uint64_t()> clock_ns;

  [[nodiscard]] static BenchOptions quick() {
    return BenchOptions{.warmup = 1, .repetitions = 5, .clock_ns = nullptr};
  }
};

/// One case's measured result (the artifact row).
struct CaseResult {
  std::string group;
  std::string name;
  int warmup = 0;
  int repetitions = 0;
  std::int64_t iterations = 1;
  /// Per-operation seconds over the timed batches.
  SampleStats seconds;
  /// 1 / seconds.median (operations per second at the median).
  double ops_per_s = 0.0;
  /// bytes_per_op / seconds.median; 0 when the case declares no bytes.
  double bytes_per_s = 0.0;

  [[nodiscard]] std::string id() const { return group + "/" + name; }
};

/// Build a `CaseResult` from already-measured per-operation seconds
/// samples (the shared tail of `run_case`; also the entry point for a
/// program that times its own operations).
[[nodiscard]] CaseResult result_from_samples(std::string group, std::string name,
                                             int warmup, std::int64_t iterations,
                                             std::vector<double> per_op_seconds,
                                             double bytes_per_op = 0.0);

/// Run one case under `options` (setup, warmup batches, timed batches,
/// summary).  Throws std::invalid_argument on a case whose setup yields
/// no op or iterations < 1, and propagates whatever the case throws.
[[nodiscard]] CaseResult run_case(const BenchCase& bench_case,
                                  const BenchOptions& options = {});

/// The machine fingerprint recorded in every artifact, so a baseline
/// number can be traced to the hardware/toolchain that produced it
/// (comparison logic deliberately ignores it: CI tolerances absorb
/// machine differences).
struct Environment {
  int cores = 0;
  std::string compiler;    ///< e.g. "gcc 12.2.0"
  std::string build_type;  ///< "release" (NDEBUG) or "debug"
  std::string os;          ///< "linux", "darwin", "windows", "unknown"
  int pointer_bits = 0;
};

[[nodiscard]] Environment capture_environment();

/// The built-in case registry: the five hot paths tracked per-PR --
/// engine (50x50 heat-map grid), mc (Monte-Carlo sampling), batch
/// (mixed-fleet run_batch), json (parse/dump of a large canonical
/// result), cache (ResultCache hit/miss).  Deterministic order (artifact
/// files list cases in registry order).
[[nodiscard]] std::vector<BenchCase> builtin_cases();

}  // namespace greenfpga::bench

#endif  // GREENFPGA_BENCH_HARNESS_HPP
