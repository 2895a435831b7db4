/// \file montecarlo.cpp
/// The montecarlo kind: uncertainty quantification over
/// distribution-sampled Table 1 parameters.

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "report/ascii_chart.hpp"
#include "report/result_frame.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using core::int_field_ctx;
using core::number_field_or;

constexpr std::string_view kAliases[] = {"monte_carlo", "mc"};
constexpr std::string_view kSpecKeys[] = {"montecarlo"};
constexpr std::string_view kResultKeys[] = {"uncertainty"};

void seed_defaults(ScenarioSpec& spec) {
  spec.montecarlo.distributions = default_distributions();
}

/// Canonical form: only the fields the kind actually uses, so authors see
/// no spurious knobs and the round-trip stays byte-identical.
void write_distribution(io::JsonWriter& out, const core::ParamDistribution& distribution) {
  const bool normal = distribution.kind == core::DistributionKind::normal;
  out.begin_object();
  out.number("high", distribution.high);
  out.string("kind", core::to_string(distribution.kind));
  out.number("low", distribution.low);
  if (normal) {
    out.number("mean", distribution.mean);
  }
  if (distribution.kind == core::DistributionKind::triangular) {
    out.number("mode", distribution.mode);
  }
  out.string("parameter", distribution.parameter);
  if (normal) {
    out.number("stddev", distribution.stddev);
  }
  out.end_object();
}

core::ParamDistribution distribution_from_json(const Json& json) {
  core::check_known_keys(json, "distribution",
                         {"parameter", "kind", "low", "high", "mean", "stddev", "mode"});
  core::ParamDistribution distribution;
  distribution.parameter = core::string_field_or(json, "distribution", "parameter", "");
  if (distribution.parameter.empty()) {
    throw core::ConfigError("distribution entries need a \"parameter\" name");
  }
  // The named Table 1 range supplies the default support (and validates
  // the name): {"parameter": "E_des [GWh]"} alone is a complete entry.
  const std::vector<ParameterRange>& known = table1_ranges();
  const auto range = std::find_if(known.begin(), known.end(), [&](const ParameterRange& r) {
    return r.name == distribution.parameter;
  });
  if (range == known.end()) {
    throw core::ConfigError("unknown distribution parameter \"" +
                            distribution.parameter + "\" (see table1_ranges)");
  }
  const std::string context = "distribution \"" + distribution.parameter + "\"";
  const std::string kind = core::string_field_or(json, context, "kind", "uniform");
  const auto parsed_kind = core::parse_distribution_kind(kind);
  if (!parsed_kind) {
    throw core::ConfigError("distribution \"" + distribution.parameter +
                            "\": unknown kind \"" + kind +
                            "\" (uniform, normal, triangular)");
  }
  distribution.kind = *parsed_kind;
  // Kind-irrelevant fields are rejected, not ignored: a normal entry with
  // "kind" forgotten would otherwise silently sample uniform over the
  // full range and drop the author's mean/stddev.
  for (const std::string_view key : {"mean", "stddev"}) {
    if (distribution.kind != core::DistributionKind::normal && json.contains(key)) {
      throw core::ConfigError(context + ": \"" + std::string(key) +
                              "\" needs \"kind\": \"normal\"");
    }
  }
  if (distribution.kind != core::DistributionKind::triangular && json.contains("mode")) {
    throw core::ConfigError(context + ": \"mode\" needs \"kind\": \"triangular\"");
  }
  distribution.low = number_field_or(json, context, "low", range->low);
  distribution.high = number_field_or(json, context, "high", range->high);
  if (distribution.kind == core::DistributionKind::normal) {
    distribution.mean = number_field_or(json, context, "mean",
                                        0.5 * (distribution.low + distribution.high));
    distribution.stddev = number_field_or(json, context, "stddev",
                                          (distribution.high - distribution.low) / 4.0);
  } else if (distribution.kind == core::DistributionKind::triangular) {
    distribution.mode = number_field_or(json, context, "mode",
                                        0.5 * (distribution.low + distribution.high));
  }
  return distribution;
}

void write_params(const ScenarioSpec& spec, std::string_view /*key*/, io::JsonWriter& out) {
  out.key("montecarlo");
  out.begin_object();
  out.key("distributions");
  out.begin_array();
  for (const core::ParamDistribution& distribution : spec.montecarlo.distributions) {
    write_distribution(out, distribution);
  }
  out.end_array();
  out.numbers("percentiles", spec.montecarlo.percentiles);
  out.number("samples", spec.montecarlo.samples);
  out.number("seed", spec.montecarlo.seed);
  out.end_object();
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("montecarlo")) {
    return;
  }
  const Json& entry = json.at("montecarlo");
  core::check_known_keys(entry, "montecarlo",
                         {"samples", "seed", "distributions", "percentiles"});
  MonteCarloUqSpec& montecarlo = spec.montecarlo;
  // Range-guarded integer reads (int_field_or rejects non-integral values
  // and out-of-range input instead of casting, which would be UB).
  montecarlo.samples = static_cast<int>(
      int_field_ctx(entry, "montecarlo", "samples", montecarlo.samples, 1,
                    10'000'000));
  montecarlo.seed = static_cast<unsigned>(
      int_field_ctx(entry, "montecarlo", "seed", montecarlo.seed, 0, 4294967295LL));
  if (entry.contains("distributions")) {
    montecarlo.distributions.clear();
    for (const Json& value : entry.at("distributions").as_array()) {
      montecarlo.distributions.push_back(distribution_from_json(value));
    }
  }
  if (entry.contains("percentiles")) {
    montecarlo.percentiles = core::numbers_field(entry, "montecarlo", "percentiles");
  }
}

void validate(const ScenarioSpec& spec) {
  if (spec.montecarlo.samples < 1) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name +
                                "': montecarlo needs at least one sample");
  }
  double previous = -1.0;
  for (const double p : spec.montecarlo.percentiles) {
    if (p < 0.0 || p > 100.0 || p <= previous) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec.name +
          "': montecarlo percentiles must be strictly increasing in [0, 100]");
    }
    previous = p;
  }
  validate_spec_distributions(spec);
}

/// Per-spec montecarlo context: the schedule plus each distribution's
/// Table 1 applier, bound by index.
struct McPlan {
  std::vector<std::size_t> applier_index;  ///< into table1_ranges(), one per distribution
  workload::Schedule schedule;
};

McPlan plan_montecarlo(const ScenarioSpec& spec) {
  McPlan plan;
  plan.schedule = spec.schedule.materialise(spec.domain);
  // Bind each distribution to its Table 1 applier by name (spec.validate()
  // has already rejected unknown names).
  const std::vector<ParameterRange>& known = table1_ranges();
  plan.applier_index.reserve(spec.montecarlo.distributions.size());
  for (const core::ParamDistribution& distribution : spec.montecarlo.distributions) {
    for (std::size_t r = 0; r < known.size(); ++r) {
      if (known[r].name == distribution.parameter) {
        plan.applier_index.push_back(r);
        break;
      }
    }
  }
  return plan;
}

/// Evaluate Monte-Carlo sample `i` into column i of `uq.sample_totals_kg`.
/// Sample i draws its parameter values from the counter stream
/// (seed, i, dimension) -- fully determined by the sample index, never by
/// which worker ran it or in what order.  Every sample re-parameterises
/// the suite, so the memoised per-worker model is useless here: each
/// sample builds its own LifecycleModel from the sampled suite.
void evaluate_mc_sample(const ScenarioSpec& spec, const McPlan& plan,
                        const core::ModelSuite& suite,
                        const std::vector<device::ChipSpec>& chips, std::size_t i,
                        MonteCarloUq& uq) {
  const MonteCarloUqSpec& mc = spec.montecarlo;
  core::ModelSuite sampled = suite;
  for (std::size_t j = 0; j < mc.distributions.size(); ++j) {
    const double u = core::counter_uniform01(mc.seed, i, j);
    table1_ranges()[plan.applier_index[j]].apply(sampled, mc.distributions[j].sample(u));
  }
  const core::LifecycleModel model(sampled);
  for (std::size_t p = 0; p < chips.size(); ++p) {
    uq.sample_totals_kg[p][i] =
        model.evaluate(chips[p], plan.schedule).total.total().canonical();
  }
}

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  const McPlan plan = plan_montecarlo(spec);
  MonteCarloUq uq;
  uq.samples = spec.montecarlo.samples;
  uq.percentiles = spec.montecarlo.percentiles;
  uq.sample_totals_kg.assign(
      result.resolved_chips.size(),
      std::vector<double>(static_cast<std::size_t>(spec.montecarlo.samples), 0.0));

  // Shard samples across the pool: every sample writes to pre-sized slot
  // i, so results are bit-identical for any thread count.
  core::parallel_for_state(
      static_cast<std::size_t>(spec.montecarlo.samples), context.threads,
      [] { return 0; },
      [&](int& /*state*/, std::size_t i) {
        evaluate_mc_sample(spec, plan, suite, result.resolved_chips, i, uq);
      },
      result.resolved_chips.size());

  // Serial reduction on the caller's thread (deterministic order).
  reduce_montecarlo(uq);
  result.uncertainty = std::move(uq);
}

void write_stats(io::JsonWriter& out, io::JsonKey key, const std::vector<UqStat>& stats) {
  out.key(key);
  out.begin_array();
  for (const UqStat& stat : stats) {
    out.begin_object();
    out.number("mean", stat.mean);
    out.numbers("percentile_values", stat.percentile_values);
    out.number("stddev", stat.stddev);
    out.end_object();
  }
  out.end_array();
}

void write_result(const ScenarioResult& result, std::string_view /*key*/,
                  io::JsonWriter& out, int /*threads*/) {
  if (!result.uncertainty) {
    return;
  }
  const MonteCarloUq& uq = *result.uncertainty;
  out.key("uncertainty");
  out.begin_object();
  out.numbers("percentiles", uq.percentiles);
  write_stats(out, "platform_total", uq.platform_total);
  write_stats(out, "ratio", uq.ratio);
  out.key("sample_totals_kg");
  out.begin_array();
  for (const std::vector<double>& platform : uq.sample_totals_kg) {
    out.numbers(platform);
  }
  out.end_array();
  out.number("samples", uq.samples);
  out.numbers("win_fraction", uq.win_fraction);
  out.end_object();
}

UqStat stat_from_json(const Json& json) {
  UqStat stat;
  stat.mean = json.at("mean").as_number_total();
  stat.stddev = json.at("stddev").as_number_total();
  stat.percentile_values = doubles_from_json(json.at("percentile_values"));
  return stat;
}

void result_from_json(const Json& json, ScenarioResult& result) {
  if (!json.contains("uncertainty")) {
    return;
  }
  const Json& mc = json.at("uncertainty");
  core::check_known_keys(mc, "result uncertainty",
                         {"samples", "percentiles", "platform_total", "ratio",
                          "win_fraction", "sample_totals_kg"});
  MonteCarloUq uq;
  uq.samples = static_cast<int>(mc.at("samples").as_int());
  uq.percentiles = doubles_from_json(mc.at("percentiles"));
  for (const Json& stat : mc.at("platform_total").as_array()) {
    uq.platform_total.push_back(stat_from_json(stat));
  }
  for (const Json& stat : mc.at("ratio").as_array()) {
    uq.ratio.push_back(stat_from_json(stat));
  }
  uq.win_fraction = doubles_from_json(mc.at("win_fraction"));
  for (const Json& platform : mc.at("sample_totals_kg").as_array()) {
    uq.sample_totals_kg.push_back(doubles_from_json(platform));
  }
  result.uncertainty = std::move(uq);
}

void to_frames(const ScenarioResult& result, std::vector<report::ResultFrame>& frames) {
  frames.push_back(uncertainty_frame(result));
}

bool render_text(const ScenarioResult& result,
                 std::span<const report::ResultFrame> frames, std::ostream& out) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      out << "\n";
    }
    out << report::frame_to_table(frames[i]);
  }
  const MonteCarloUq& uq = *result.uncertainty;
  if (!uq.ratio.empty()) {
    std::vector<double> ratios = uq.ratio_samples(1);
    std::sort(ratios.begin(), ratios.end());
    out << report::render_cdf(ratios, result.platform_names[1] + ":" +
                                          result.platform_names[0] + " ratio");
  }
  return true;
}

bool sample_csv(const ScenarioSpec& /*spec*/) { return true; }

}  // namespace

const KindModule& montecarlo_module() {
  static const KindModule module{
      .kind = ScenarioKind::montecarlo,
      .name = "montecarlo",
      .aliases = kAliases,
      .summary = "uncertainty quantification: distribution-sampled inputs",
      .spec_keys = kSpecKeys,
      .seed_defaults = seed_defaults,
      .write_params = write_params,
      .parse_params = parse_params,
      .validate = validate,
      .execute = execute,
      .result_keys = kResultKeys,
      .write_result = write_result,
      .result_from_json = result_from_json,
      .to_frames = to_frames,
      .render_text = render_text,
      .sample_csv = sample_csv,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
