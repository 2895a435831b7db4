/// \file engine.cpp
/// Spec dispatch through the kind registry, the content-keyed batch, and
/// the ASIC-vs-FPGA result views.  Kind evaluation itself lives in the
/// modules under scenario/kinds/.

#include "scenario/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "act/grid_profile.hpp"
#include "core/config_io.hpp"
#include "core/parallel.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/result_cache.hpp"

namespace greenfpga::scenario {

/// Spec validation + platform resolution + grid-profile application: the
/// shared front half of every entry point.
struct Engine::PreparedRun {
  ScenarioResult result;   ///< spec as run, platform names, resolved chips
  core::ModelSuite suite;  ///< effective suite (grid profile applied)
};

namespace {

using core::parallel_for_state;

/// Replace the flat use-phase intensity with the profile-scheduled one.
core::ModelSuite apply_grid_profile(core::ModelSuite suite, const GridProfileSpec& spec) {
  act::DailyProfile profile;
  if (spec.profile == "uniform") {
    profile = act::DailyProfile();
  } else if (spec.profile == "solar_duck") {
    profile = act::DailyProfile::solar_duck();
  } else if (spec.profile == "windy_night") {
    profile = act::DailyProfile::windy_night();
  } else {
    throw std::invalid_argument("Engine: unknown grid profile '" + spec.profile +
                                "' (uniform, solar_duck, windy_night)");
  }
  act::DutySchedulingPolicy policy = act::DutySchedulingPolicy::uniform;
  if (spec.policy == "uniform") {
    policy = act::DutySchedulingPolicy::uniform;
  } else if (spec.policy == "carbon_aware") {
    policy = act::DutySchedulingPolicy::carbon_aware;
  } else if (spec.policy == "worst_case") {
    policy = act::DutySchedulingPolicy::worst_case;
  } else {
    throw std::invalid_argument("Engine: unknown duty policy '" + spec.policy +
                                "' (uniform, carbon_aware, worst_case)");
  }
  suite.operation.use_intensity = act::scheduled_intensity(
      suite.operation.use_intensity, profile, suite.operation.duty_cycle, policy);
  return suite;
}

}  // namespace

std::vector<double> MonteCarloUq::ratio_samples(std::size_t index) const {
  if (index == 0 || index >= sample_totals_kg.size()) {
    throw std::out_of_range("MonteCarloUq::ratio_samples: no platform " +
                            std::to_string(index));
  }
  const std::vector<double>& baseline = sample_totals_kg.front();
  const std::vector<double>& platform = sample_totals_kg[index];
  std::vector<double> ratios(platform.size());
  for (std::size_t i = 0; i < platform.size(); ++i) {
    ratios[i] = platform[i] / baseline[i];
  }
  return ratios;
}

double EvalPoint::ratio(std::size_t index, std::size_t baseline) const {
  return platforms.at(index).total.total().canonical() /
         platforms.at(baseline).total.total().canonical();
}

std::optional<std::size_t> ScenarioResult::platform_index(device::ChipKind kind) const {
  for (std::size_t i = 0; i < resolved_chips.size(); ++i) {
    if (resolved_chips[i].kind == kind) {
      return i;
    }
  }
  return std::nullopt;
}

core::Comparison ScenarioResult::comparison() const {
  if (points.size() != 1) {
    throw std::logic_error("ScenarioResult::comparison: needs exactly one point");
  }
  const auto asic = platform_index(device::ChipKind::asic);
  const auto fpga = platform_index(device::ChipKind::fpga);
  if (!asic || !fpga) {
    throw std::logic_error("ScenarioResult::comparison: needs ASIC and FPGA platforms");
  }
  return core::Comparison{.asic = points.front().platforms[*asic],
                          .fpga = points.front().platforms[*fpga]};
}

SweepSeries ScenarioResult::sweep_series() const {
  if (spec.axes.size() != 1) {
    throw std::logic_error("ScenarioResult::sweep_series: needs exactly one axis");
  }
  const auto asic = platform_index(device::ChipKind::asic);
  const auto fpga = platform_index(device::ChipKind::fpga);
  if (!asic || !fpga) {
    throw std::logic_error("ScenarioResult::sweep_series: needs ASIC and FPGA platforms");
  }
  SweepSeries series;
  series.parameter = spec.axes.front().label();
  series.domain = spec.domain;
  series.x.reserve(points.size());
  series.asic.reserve(points.size());
  series.fpga.reserve(points.size());
  for (const EvalPoint& point : points) {
    series.x.push_back(point.coords.front());
    series.asic.push_back(point.platforms[*asic].total);
    series.fpga.push_back(point.platforms[*fpga].total);
  }
  return series;
}

Heatmap ScenarioResult::heatmap() const {
  if (spec.axes.size() != 2) {
    throw std::logic_error("ScenarioResult::heatmap: needs exactly two axes");
  }
  const auto asic = platform_index(device::ChipKind::asic);
  const auto fpga = platform_index(device::ChipKind::fpga);
  if (!asic || !fpga) {
    throw std::logic_error("ScenarioResult::heatmap: needs ASIC and FPGA platforms");
  }
  Heatmap map;
  map.x_name = spec.axes[0].label();
  map.y_name = spec.axes[1].label();
  map.domain = spec.domain;
  map.x = spec.axes[0].values();
  map.y = spec.axes[1].values();
  map.ratio.assign(map.y.size(), std::vector<double>(map.x.size(), 0.0));
  if (points.size() != map.x.size() * map.y.size()) {
    throw std::logic_error("ScenarioResult::heatmap: point count does not match axes");
  }
  for (std::size_t iy = 0; iy < map.y.size(); ++iy) {
    for (std::size_t ix = 0; ix < map.x.size(); ++ix) {
      const EvalPoint& point = points[iy * map.x.size() + ix];
      map.ratio[iy][ix] = point.platforms[*fpga].total.total().canonical() /
                          point.platforms[*asic].total.total().canonical();
    }
  }
  return map;
}

Engine::Engine(EngineOptions options)
    : threads_(options.threads > 0 ? std::min(options.threads, kMaxThreads)
                                   : default_threads()),
      registry_(options.registry),
      cache_(options.cache) {}

std::optional<int> Engine::parse_threads(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE || parsed < 1) {
    return std::nullopt;
  }
  return static_cast<int>(std::min<long>(parsed, kMaxThreads));
}

int Engine::default_threads() {
  if (const char* env = std::getenv("GREENFPGA_THREADS")) {
    if (const std::optional<int> parsed = parse_threads(env)) {
      return *parsed;
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

const device::PlatformRegistry& Engine::registry() const {
  return registry_ != nullptr ? *registry_ : device::PlatformRegistry::builtins();
}

Engine::PreparedRun Engine::prepare(const ScenarioSpec& spec) const {
  spec.validate();
  PreparedRun prepared;
  prepared.result.spec = spec;
  if (prepared.result.spec.platforms.empty()) {
    const KindModule& module = kind_module(spec.kind);
    prepared.result.spec.platforms =
        module.default_platforms != nullptr
            ? module.default_platforms()
            : std::vector<PlatformRef>{
                  PlatformRef{.name = "asic", .chip = std::nullopt},
                  PlatformRef{.name = "fpga", .chip = std::nullopt}};
  }
  for (const PlatformRef& platform : prepared.result.spec.platforms) {
    prepared.result.platform_names.push_back(platform.name);
    prepared.result.resolved_chips.push_back(
        platform.chip ? *platform.chip
                      : registry().resolve(platform.name, prepared.result.spec.domain));
  }
  prepared.suite = prepared.result.spec.grid_profile
                       ? apply_grid_profile(prepared.result.spec.suite,
                                            *prepared.result.spec.grid_profile)
                       : prepared.result.spec.suite;
  return prepared;
}

namespace {

/// The content-address of a prepared evaluation: compact canonical JSON
/// of the as-run spec (platforms defaulted, suite embedded) plus the
/// registry-resolved chips.  Everything the engine's deterministic answer
/// depends on is in these bytes.
struct ContentKey {
  std::string bytes;
  std::uint64_t fingerprint = 0;  ///< FNV-1a of `bytes`
};

/// `{"platforms":[chips...],"spec":{...}}`, compact, streamed (no DOM);
/// the fingerprint is folded as the buffered bytes are handed over.
ContentKey content_key(const ScenarioResult& resolved) {
  ContentKey key;
  io::JsonWriter out(key.bytes, 0);
  out.begin_object();
  out.key("platforms");
  out.begin_array();
  for (const device::ChipSpec& chip : resolved.resolved_chips) {
    core::write_json(out, chip);
  }
  out.end_array();
  out.key("spec");
  write_spec(resolved.spec, out);
  out.end_object();
  key.fingerprint = out.finish_hashed();
  return key;
}

}  // namespace

std::string Engine::cache_key(const ScenarioSpec& spec) const {
  return content_key(prepare(spec).result).bytes;
}

ScenarioResult Engine::run(const ScenarioSpec& spec) const {
  if (cache_ != nullptr) {
    return *run_cached(spec).result;
  }
  return run_prepared(prepare(spec));
}

Engine::CachedRun Engine::run_cached(const ScenarioSpec& spec) const {
  PreparedRun prepared = prepare(spec);
  CachedRun outcome;
  ContentKey key = content_key(prepared.result);
  outcome.key = std::move(key.bytes);
  outcome.fingerprint = key.fingerprint;
  if (cache_ != nullptr) {
    if (std::shared_ptr<const ScenarioResult> hit =
            cache_->lookup(outcome.key, &outcome.bytes)) {
      outcome.result = std::move(hit);
      outcome.hit = true;
      return outcome;
    }
  }
  auto fresh = std::make_shared<ScenarioResult>(run_prepared(std::move(prepared)));
  if (cache_ != nullptr) {
    cache_->insert(outcome.key, fresh);
  }
  outcome.result = std::move(fresh);
  return outcome;
}

ScenarioResult Engine::run_prepared(PreparedRun prepared) const {
  ScenarioResult result = std::move(prepared.result);
  const core::ModelSuite suite = std::move(prepared.suite);
  kind_module(result.spec.kind)
      .execute(KindRunContext{.threads = threads_}, suite, result);
  return result;
}

UqStat summarise_samples(std::vector<double> values,
                         const std::vector<double>& percentiles) {
  if (values.empty()) {
    throw std::invalid_argument("summarise_samples: need at least one value");
  }
  for (const double p : percentiles) {
    if (!(p >= 0.0) || !(p <= 100.0)) {
      throw std::invalid_argument(
          "summarise_samples: percentiles must be in [0, 100]");
    }
  }
  UqStat stat;
  const std::size_t n = values.size();
  // Sort first so the accumulation order (and thus the last-ulp bits of
  // mean/stddev) is a function of the value set alone.
  std::sort(values.begin(), values.end());
  if (values.front() == values.back()) {
    // All samples identical (e.g. an empty distribution list collapsing
    // to the point estimate): the mean is exact and the variance exactly
    // zero -- a naive sum would round and report phantom uncertainty.
    stat.mean = values.front();
    stat.stddev = 0.0;
    stat.percentile_values.assign(percentiles.size(), values.front());
    return stat;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  stat.mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (const double v : values) {
    sq += (v - stat.mean) * (v - stat.mean);
  }
  stat.stddev = n > 1 ? std::sqrt(sq / static_cast<double>(n - 1)) : 0.0;
  stat.percentile_values.reserve(percentiles.size());
  for (const double p : percentiles) {
    const double index = (p / 100.0) * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(std::floor(index));
    const auto hi = static_cast<std::size_t>(std::ceil(index));
    const double t = index - std::floor(index);
    stat.percentile_values.push_back(values[lo] * (1.0 - t) + values[hi] * t);
  }
  return stat;
}

std::vector<ScenarioResult> Engine::run_batch(const std::vector<ScenarioSpec>& specs) const {
  // Prepare (validate + resolve) every spec exactly once; the prepared
  // form both carries the content key and feeds the evaluator.
  std::vector<PreparedRun> prepared;
  prepared.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    prepared.push_back(prepare(spec));
  }
  if (cache_ == nullptr) {
    return run_batch_prepared(std::move(prepared));
  }

  // Content-address every spec, then look each *distinct* key up once:
  // duplicates within the batch and results cached by earlier runs are
  // never re-evaluated.
  std::vector<std::string> keys;
  keys.reserve(prepared.size());
  for (const PreparedRun& run : prepared) {
    keys.push_back(content_key(run.result).bytes);
  }
  std::unordered_map<std::string, std::shared_ptr<const ScenarioResult>> by_key;
  std::vector<std::size_t> to_eval;  // index of each distinct key's first spec
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (by_key.find(keys[i]) != by_key.end()) {
      continue;
    }
    std::shared_ptr<const ScenarioResult> hit = cache_->lookup(keys[i]);
    if (!hit) {
      to_eval.push_back(i);
    }
    by_key.emplace(keys[i], std::move(hit));
  }

  std::vector<PreparedRun> misses;
  misses.reserve(to_eval.size());
  for (const std::size_t i : to_eval) {
    misses.push_back(std::move(prepared[i]));
  }
  std::vector<ScenarioResult> fresh = run_batch_prepared(std::move(misses));
  for (std::size_t j = 0; j < to_eval.size(); ++j) {
    auto shared = std::make_shared<const ScenarioResult>(std::move(fresh[j]));
    cache_->insert(keys[to_eval[j]], shared);
    by_key[keys[to_eval[j]]] = std::move(shared);
  }

  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    results.push_back(*by_key[keys[i]]);
  }
  return results;
}

std::vector<ScenarioResult> Engine::run_batch_prepared(
    std::vector<PreparedRun> prepared) const {
  // One pool task per spec, each through its kind's own `execute` at the
  // engine's thread count: a spec's nested parallel call takes whatever
  // helpers are idle, so a lone large spec still gets the whole pool and
  // small specs share it.
  std::vector<ScenarioResult> results(prepared.size());
  parallel_for_state(
      prepared.size(), threads_, [] { return 0; },
      [&](int& /*state*/, std::size_t s) {
        results[s] = run_prepared(std::move(prepared[s]));
      },
      core::kInlineWork);
  return results;
}

}  // namespace greenfpga::scenario
