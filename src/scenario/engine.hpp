#ifndef GREENFPGA_SCENARIO_ENGINE_HPP
#define GREENFPGA_SCENARIO_ENGINE_HPP

/// \file engine.hpp
/// The unified evaluation engine: one entry point for every scenario.
///
/// `Engine::run(spec)` dispatches a declarative `ScenarioSpec` to the
/// lifecycle models and returns a `ScenarioResult`:
///
///   * compare / sweep / grid specs evaluate every (platform, scenario
///     point) pair, with independent points executed **in parallel** on a
///     worker pool (each worker owns its own `LifecycleModel` copy, whose
///     memoised embodied-carbon sub-results make a 50x50 heat-map compute
///     fab/package/EOL once per platform instead of 2500 times);
///   * timeline / breakeven / node_dse / sensitivity specs dispatch to the
///     corresponding scenario primitives (node-DSE candidates also run on
///     the pool).
///
/// Results are **bit-identical across thread counts**: every point is
/// computed by the same deterministic code from the same inputs, and
/// workers write to pre-sized slots (pinned by tests/engine_test.cpp).
///
/// This is the one way to run a kind: the paper's sweeps (Figs. 4-6),
/// heat-maps (Fig. 8) and timeline (Fig. 9), the bench/ reproduction
/// drivers, the examples and the CLI all build a `ScenarioSpec` and call
/// `Engine::run`.  The per-kind modules' free functions (`simulate_timeline`,
/// `solve_*_breakeven`, `rank_node_candidates`, `detail::*_analysis`) are
/// the primitives the kinds dispatch to.

#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "device/platform_registry.hpp"
#include "dse/frontier.hpp"
#include "io/byte_segments.hpp"
#include "scenario/breakeven.hpp"
#include "scenario/heatmap.hpp"
#include "scenario/node_dse.hpp"
#include "scenario/sensitivity.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/timeline.hpp"

namespace greenfpga::scenario {

class ResultCache;

/// Engine construction knobs.
struct EngineOptions {
  /// Worker count for independent points; 0 means `Engine::default_threads()`
  /// (the `GREENFPGA_THREADS` environment variable, else hardware
  /// concurrency).  Clamped to `Engine::kMaxThreads`.  Results do not
  /// depend on this value.
  int threads = 0;
  /// Platform-name resolver; nullptr means `PlatformRegistry::builtins()`.
  /// The registry must outlive the engine.
  const device::PlatformRegistry* registry = nullptr;
  /// Optional shared result cache (see scenario/result_cache.hpp): `run`
  /// consults it keyed by `cache_key`, and `run_batch` evaluates each
  /// distinct uncached key once.  Cached results are byte-identical to a
  /// cold run (the engine is deterministic), pinned by tests.  nullptr
  /// disables caching.  The cache must outlive the engine; it is
  /// thread-safe and may be shared across engines.
  ResultCache* cache = nullptr;
};

/// One evaluated scenario point: a row of a `PointTable`, viewing its axis
/// coordinates plus every platform's lifecycle result (in
/// `ScenarioSpec::platforms` order).  Valid while its table is alive and
/// not reassigned.
struct EvalPoint {
  std::span<const double> coords;
  std::span<const core::PlatformCfp> platforms;

  /// Total-CFP ratio of platform `index` over platform `baseline`; throws
  /// std::out_of_range for an index past `platforms`.
  [[nodiscard]] double ratio(std::size_t index, std::size_t baseline = 0) const;
};

/// The evaluated points of a compare/sweep/grid result as one table: two
/// contiguous row-major arrays, the axis coordinates (`size() x axes()`)
/// and the platform cells (`size() x platform_count()`).  A 50x50 grid is
/// then two allocations to make and free, not a pair per point.  Rows are
/// `EvalPoint` views: `points[i].platforms[p]`, `front()`, `back()` and
/// range-for read them.
class PointTable {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using value_type = EvalPoint;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const PointTable* table, std::size_t row) : table_(table), row_(row) {}

    [[nodiscard]] EvalPoint operator*() const { return (*table_)[row_]; }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++row_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.row_ == b.row_; }

   private:
    const PointTable* table_ = nullptr;
    std::size_t row_ = 0;
  };

  PointTable() = default;
  /// `points` rows of `axes` zero coordinates and `platforms`
  /// default-constructed cells, to be written in place.
  PointTable(std::size_t points, std::size_t axes, std::size_t platforms)
      : size_(points),
        axes_(axes),
        platforms_(platforms),
        coords_(points * axes),
        cells_(points * platforms) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t axes() const { return axes_; }
  [[nodiscard]] std::size_t platform_count() const { return platforms_; }

  [[nodiscard]] EvalPoint operator[](std::size_t i) const {
    return EvalPoint{.coords = {coords_.data() + i * axes_, axes_},
                     .platforms = {cells_.data() + i * platforms_, platforms_}};
  }
  [[nodiscard]] EvalPoint front() const { return (*this)[0]; }
  [[nodiscard]] EvalPoint back() const { return (*this)[size_ - 1]; }
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size_}; }

  /// Row `i`'s writable coordinates and cells, for filling in place.
  [[nodiscard]] std::span<double> row_coords(std::size_t i) {
    return {coords_.data() + i * axes_, axes_};
  }
  [[nodiscard]] std::span<core::PlatformCfp> row_platforms(std::size_t i) {
    return {cells_.data() + i * platforms_, platforms_};
  }

  /// The two arrays themselves.
  [[nodiscard]] const std::vector<double>& coords() const { return coords_; }
  [[nodiscard]] const std::vector<core::PlatformCfp>& cells() const { return cells_; }

 private:
  std::size_t size_ = 0;
  std::size_t axes_ = 0;
  std::size_t platforms_ = 0;
  std::vector<double> coords_;
  std::vector<core::PlatformCfp> cells_;
};

/// Closed-form breakeven solves (nullopt = not requested or no crossover).
struct BreakevenReport {
  std::optional<double> app_count;
  std::optional<double> lifetime_years;
  std::optional<double> volume;
};

/// Summary statistics of one Monte-Carlo-sampled metric.
struct UqStat {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n - 1)
  /// One value per requested percentile (`MonteCarloUq::percentiles`),
  /// linearly interpolated over the sorted samples.
  std::vector<double> percentile_values;
};

/// Mean / sample stddev / interpolated percentiles (in percent) of one
/// sampled metric.  The single definition shared by the montecarlo kind
/// and the sensitivity module's Monte-Carlo summary, so the two reports
/// can never disagree on what a percentile means.  Requires at least one
/// value; sorts internally.
[[nodiscard]] UqStat summarise_samples(std::vector<double> values,
                                       const std::vector<double>& percentiles);

/// Monte-Carlo uncertainty quantification over the spec's platform set:
/// every metric the point estimate produced, as a sampled distribution.
/// Produced by the montecarlo kind; bit-identical for any thread count
/// (counter-based per-sample RNG streams, pre-sized result slots).
struct MonteCarloUq {
  int samples = 0;
  std::vector<double> percentiles;     ///< requested percentiles, in percent
  std::vector<UqStat> platform_total;  ///< total CFP [kg CO2e], spec platform order
  /// Total-CFP ratio of platform p over the baseline (platform 0); entry
  /// k describes platform k + 1.  Empty with fewer than two platforms.
  std::vector<UqStat> ratio;
  /// Fraction of samples where platform k + 1 beats (is below) the
  /// baseline; aligned with `ratio`.
  std::vector<double> win_fraction;
  /// Raw per-sample totals [kg CO2e], [platform][sample] in sample order
  /// (sample i is reproducible in isolation from the seed alone): the CSV
  /// export and CDF charts read these.
  std::vector<std::vector<double>> sample_totals_kg;

  /// Per-sample ratio series of platform `index` over the baseline,
  /// in sample order.
  [[nodiscard]] std::vector<double> ratio_samples(std::size_t index = 1) const;
};

/// The engine's output: the resolved spec plus the kind-dependent payload.
struct ScenarioResult {
  ScenarioSpec spec;                            ///< as run (platforms defaulted)
  std::vector<std::string> platform_names;      ///< one per spec platform
  std::vector<device::ChipSpec> resolved_chips; ///< one per spec platform

  /// compare: 1 point; sweep: one per axis sample; grid: row-major with
  /// axis 1 (y) outer, axis 0 (x) inner.
  PointTable points;

  std::optional<TimelineSeries> timeline;       ///< timeline kind
  std::vector<NodeCandidate> candidates;        ///< node_dse kind, ranked
  std::vector<TornadoEntry> tornado;            ///< sensitivity kind
  std::optional<MonteCarloResult> monte_carlo;  ///< sensitivity kind
  std::optional<BreakevenReport> breakeven;     ///< breakeven kind
  std::optional<MonteCarloUq> uncertainty;      ///< montecarlo kind (and fleet MC)
  std::optional<dse::FrontierResult> frontier;  ///< frontier kind
  std::optional<FleetResult> fleet;             ///< fleet kind

  // -- ASIC-vs-FPGA views (throw std::logic_error when the shape does not
  //    match, e.g. no ASIC/FPGA platform pair) --------------------------------
  [[nodiscard]] core::Comparison comparison() const;  ///< compare kind
  [[nodiscard]] SweepSeries sweep_series() const;     ///< sweep kind
  [[nodiscard]] Heatmap heatmap() const;              ///< grid kind

  /// Index of the first platform of `kind`, if any.
  [[nodiscard]] std::optional<std::size_t> platform_index(device::ChipKind kind) const;
};

/// The unified evaluation engine.
class Engine {
 public:
  /// Upper bound on the worker count.  Runs share the process's one
  /// worker pool (core/parallel.hpp), which grows to `threads() - 1`
  /// helpers on first use, so the bound caps the pool's size.
  static constexpr int kMaxThreads = 256;

  explicit Engine(EngineOptions options = {});

  /// Evaluate one scenario.  Validates the spec, resolves platforms,
  /// applies the grid profile, dispatches on kind.  With a configured
  /// `EngineOptions::cache`, a repeated spec returns the cached result
  /// (byte-identical to a cold run).
  [[nodiscard]] ScenarioResult run(const ScenarioSpec& spec) const;

  /// One cache-aware evaluation: the (shared, immutable) result plus
  /// whether it came out of the cache, for callers that surface hit/miss
  /// (the serve handlers' X-Cache header).  Without a configured cache
  /// this evaluates and reports `hit = false`.
  struct CachedRun {
    std::shared_ptr<const ScenarioResult> result;
    bool hit = false;
    std::string key;  ///< the content key (see cache_key)
    /// FNV-1a of `key`, computed in the same pass that serialized it
    /// (hash-while-dump): the compact fingerprint serve surfaces as
    /// X-Cache-Key without re-hashing the key bytes.
    std::uint64_t fingerprint = 0;
    /// On a hit, the entry's canonical `result_document` bytes when they
    /// were attached (`ResultCache::attach_bytes`); else nullptr.
    std::shared_ptr<const io::ByteSegments> bytes;
  };
  [[nodiscard]] CachedRun run_cached(const ScenarioSpec& spec) const;

  /// The content-address of `spec` under this engine: the compact
  /// canonical JSON of the validated spec (platforms defaulted, model
  /// suite embedded) plus the registry-resolved platform chips.  Two
  /// specs share a key exactly when the engine computes byte-identical
  /// results for them; resolving through the registry keeps engines with
  /// different registries from colliding on a name.  Throws on an invalid
  /// spec, like `run`.
  [[nodiscard]] std::string cache_key(const ScenarioSpec& spec) const;

  /// Evaluate many specs as one batch, returning results in spec order.
  ///
  /// Every spec is prepared (validated, resolved) up front; the specs to
  /// evaluate then run side by side, one pool task each, and each task is
  /// the spec's own kind `execute` at `threads()` -- the same call `run`
  /// makes.  A nested parallel call from a pool task takes whatever
  /// helpers are idle, so a lone large spec still gets the whole pool and
  /// small specs share it.  Each spec builds its own models, as a solo run
  /// does: specs do not share an embodied-carbon memo.
  ///
  /// Results are bit-identical to running each spec individually at any
  /// thread count (pinned by tests/golden_results_test.cpp).  A failing
  /// spec fails the whole batch with that spec's error.
  ///
  /// With a configured `EngineOptions::cache`, each *distinct* cache key
  /// is looked up once (one hit or miss counted per distinct key) and the
  /// misses are evaluated as one batch, so a manifest repeating a spec --
  /// or repeating one across invocations -- evaluates it once.
  [[nodiscard]] std::vector<ScenarioResult> run_batch(
      const std::vector<ScenarioSpec>& specs) const;

  [[nodiscard]] int threads() const { return threads_; }

  /// GREENFPGA_THREADS when `parse_threads` accepts it, else hardware
  /// concurrency (>= 1).
  [[nodiscard]] static int default_threads();

  /// The one strict worker-count parser, for `--threads` and
  /// GREENFPGA_THREADS alike: a whole decimal integer >= 1, clamped to
  /// kMaxThreads; nullopt for trailing garbage, zero, negatives and
  /// values beyond `long` (never clamped: an overflow is an error).
  [[nodiscard]] static std::optional<int> parse_threads(const std::string& text);

 private:
  struct PreparedRun;  ///< prepared spec + effective suite (engine.cpp)

  [[nodiscard]] const device::PlatformRegistry& registry() const;
  [[nodiscard]] PreparedRun prepare(const ScenarioSpec& spec) const;
  [[nodiscard]] ScenarioResult run_prepared(PreparedRun prepared) const;
  [[nodiscard]] std::vector<ScenarioResult> run_batch_prepared(
      std::vector<PreparedRun> prepared) const;

  int threads_ = 1;
  const device::PlatformRegistry* registry_ = nullptr;
  ResultCache* cache_ = nullptr;
};

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_ENGINE_HPP
