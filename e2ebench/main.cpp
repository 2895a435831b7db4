/// \file main.cpp
/// `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
///
/// With `--trace 0` it sets up the workload several times (generate the
/// inputs, compute the oracle, build the context, start the server, run
/// the warm pass) and then drives `/v1/run` from closed-loop clients for
/// `--seconds`, printing the end-to-end metrics.  With `--trace 1` it
/// sets up once, measures the untraced socket latency briefly, and then
/// replays the workload single-threaded to print the per-layer metrics.
/// The last line of standard output is one JSON object:
/// `{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0
/// only when every response matched the oracle.

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "io/json.hpp"

namespace {

using namespace e2ebench;
using Clock = std::chrono::steady_clock;

/// A `--trace 0` run sets up at least this many times and for at least
/// this long; `setup_s` is the median.
constexpr std::size_t kSetupRuns = 5;
constexpr double kSetupSeconds = 2.0;
/// Untimed closed-loop traffic between the warm pass and the timed window:
/// the first concurrent second grows the heap of the second worker and
/// would otherwise put its stalls into the tail.
constexpr double kPreRollSeconds = 2.0;
/// Share of a traced run spent on the untraced socket latency, and on the
/// route replay (the three stage replays then repeat the same requests).
constexpr double kSocketShare = 0.2;
constexpr double kRouteShare = 0.2;

struct Args {
  Workload workload = Workload::hot_small;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "error: " << problem << "\n"
            << "usage: e2ebench --workload hot_small|cold_large|mixed_churn --seed <n> "
               "--seconds <s> --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        const std::optional<Workload> workload = parse_workload(value);
        if (!workload) {
          usage("unknown workload '" + value + "'");
        }
        args.workload = *workload;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag '" + flag + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!(args.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return args;
}

void print_environment() {
#ifdef NDEBUG
  const bool release = std::string(E2EBENCH_BUILD_TYPE) == "Release";
#else
  const bool release = false;
#endif
  std::cout << "env: cores=" << std::thread::hardware_concurrency() << " compiler=\""
            << __VERSION__ << "\" build=" << E2EBENCH_BUILD_TYPE << " clients=" << kClients
            << " workers=" << kWorkers << " engine_threads=" << kEngineThreads
            << " cache_capacity=" << kCacheCapacity << " cache_shards=" << kCacheShards
            << "\n";
  if (!release) {
    std::cerr << "WARNING: ****************************************************\n"
              << "WARNING: not an optimized Release build (build type '"
              << E2EBENCH_BUILD_TYPE << "'); timings are not comparable\n"
              << "WARNING: ****************************************************\n";
  }
}

void print_phase(const char* phase, const PhaseCounts& counts) {
  std::cout << "phase " << phase << ": sent " << counts.attempted << " succeeded "
            << counts.attempted - counts.failed << " failed " << counts.failed << "\n";
  if (!counts.first_failure.empty()) {
    std::cout << "  first failure: " << counts.first_failure << "\n";
  }
}

void print_cache(const char* phase, const CacheCounters& before, const CacheCounters& after) {
  std::cout << "cache " << phase << " (GET /v1/stats): hits " << after.hits - before.hits
            << " misses " << after.misses - before.misses << " evictions "
            << after.evictions - before.evictions << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Setup {
  Inputs inputs;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<Stack> stack;
  PhaseCounts warm;
};

/// Build everything the timed window needs, from the seed alone.
void set_up(Setup& setup, Workload workload, std::uint64_t seed) {
  setup.stack.reset();
  setup.oracle.reset();
  setup.inputs = make_inputs(workload, seed);
  setup.oracle = std::make_unique<Oracle>(Oracle::build(setup.inputs));
  setup.stack = std::make_unique<Stack>();
  setup.warm = warm_pass(*setup.stack, setup.inputs, *setup.oracle);
}

void print_metric(const std::string& name, double value, const std::string& unit) {
  std::cout << std::left << std::setw(30) << name << " " << std::setprecision(6) << value
            << " " << unit << "\n";
}

void add_metric(greenfpga::io::Json& metrics, const std::string& name, double value,
                const std::string& unit) {
  greenfpga::io::Json metric = greenfpga::io::Json::object();
  metric["value"] = value;
  metric["unit"] = unit;
  metrics[name] = std::move(metric);
  print_metric(name, value, unit);
}

int run(const Args& args) {
  std::cout << "e2ebench workload=" << workload_name(args.workload) << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n";
  print_environment();

  Setup setup;
  std::vector<double> setup_s;
  const Clock::time_point first = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    set_up(setup, args.workload, args.seed);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  } while (!args.trace &&
           (setup_s.size() < kSetupRuns ||
            std::chrono::duration<double>(Clock::now() - first).count() < kSetupSeconds));

  // Every request of every phase counts in the result; `correct` also
  // needs each workload's cache contract to hold.
  PhaseCounts total;
  const auto count = [&total](const char* phase, const PhaseCounts& counts) {
    print_phase(phase, counts);
    total.attempted += counts.attempted;
    total.failed += counts.failed;
  };
  bool correct = true;
  count("warm", setup.warm);
  print_cache("warm", CacheCounters{}, fetch_stats(*setup.stack));  // a fresh server per set-up
  const LoadResult pre_roll =
      closed_loop(*setup.stack, setup.inputs, *setup.oracle, kPreRollSeconds);
  count("pre-roll", pre_roll.counts);

  const gf::scenario::ResultCacheStats cache_before = setup.stack->context.cache().stats();
  const CacheCounters timed_before = fetch_stats(*setup.stack);
  const double window_s = args.seconds * (args.trace ? kSocketShare : 1.0);
  const LoadResult load =
      closed_loop(*setup.stack, setup.inputs, *setup.oracle, window_s, pre_roll.next);
  print_cache("timed", timed_before, fetch_stats(*setup.stack));
  const gf::scenario::ResultCacheStats cache_after = setup.stack->context.cache().stats();
  setup.stack.reset();  // stop the server before anything else runs
  count("timed", load.counts);
  if (args.workload == Workload::cold_large && cache_after.hits != cache_before.hits) {
    std::cout << "cold_large hit the cache: the pool must exceed its capacity\n";
    correct = false;
  }
  if (args.workload == Workload::hot_small && cache_after.misses != cache_before.misses) {
    std::cout << "hot_small missed the cache after the warm pass\n";
    correct = false;
  }
  if (load.completions.empty()) {
    throw std::runtime_error("no request completed correctly: " + load.counts.first_failure);
  }
  const LoadSummary latency = summarize(load.completions, load.window_s);

  greenfpga::io::Json metrics = greenfpga::io::Json::object();
  if (!args.trace) {
    add_metric(metrics, "throughput_rps", latency.throughput_rps, "1/s");
    std::cout << "  median of " << latency.slices << " one-second slices; whole window "
              << static_cast<double>(latency.samples) / load.window_s << " 1/s\n";
    add_metric(metrics, "latency_p50_ms", latency.p50, "ms");
    // Printed, not in the result: on a shared host the tail of cold_large
    // (about 2000 requests a run) spreads too far between runs to gate on.
    print_metric("latency_p99_ms", latency.p99, "ms");
    std::cout << "  p99: median of " << latency.windows << " window p99s over " << latency.samples
              << " samples; every window has " << latency.beyond_p99 << "+ beyond its p99\n";
    if (latency.beyond_p99 < 10) {
      std::cerr << "WARNING: fewer than 10 samples beyond p99; run longer\n";
    }
    // Printed, not in the result: it reads 0 on a correct run; the result
    // carries it as failed / attempted.
    print_metric("error_rate",
                 static_cast<double>(load.counts.failed) /
                     static_cast<double>(load.counts.attempted),
                 "ratio");
    add_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    add_metric(metrics, "setup_s", median(setup_s), "s");
    std::cout << "  median of " << setup_s.size() << " set-ups\n";
  } else {
    std::cout << "untraced socket p50 " << latency.p50 << " ms over " << latency.samples
              << " requests\n";
    const Clock::time_point start = Clock::now();
    const TraceResult trace =
        traced_replay(setup.inputs, *setup.oracle, args.seconds * kRouteShare, latency.p50);
    count("replay", trace.counts);
    std::cout << "replay took " << std::chrono::duration<double>(Clock::now() - start).count()
              << " s\n";
    for (const LayerMetric& metric : trace.metrics) {
      add_metric(metrics, metric.name, metric.value, metric.unit);
    }
    const double hits = trace.cache_hit_ratio;
    const bool expected = args.workload == Workload::hot_small    ? hits == 1.0
                          : args.workload == Workload::cold_large ? hits == 0.0
                                                                  : hits > 0.0 && hits < 1.0;
    if (!expected) {
      std::cout << "unexpected cache hit ratio " << hits << " for this workload\n";
      correct = false;
    }
  }

  correct = correct && total.failed == 0;
  greenfpga::io::Json result = greenfpga::io::Json::object();
  result["correct"] = correct;
  result["attempted"] = total.attempted;
  result["failed"] = total.failed;
  result["metrics"] = std::move(metrics);
  std::cout << result.dump(0) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
