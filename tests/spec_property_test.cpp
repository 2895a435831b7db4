/// Property tests for the ScenarioSpec JSON round-trip: seeded randomized
/// valid specs of every kind (including the montecarlo uncertainty kind)
/// must satisfy `dump(spec_to_json(spec_from_json(dump(spec))))` ==
/// `dump(spec_to_json(spec))` byte-identically.  Generation is fully
/// seeded (std::mt19937 from the test parameter -- no wall-clock, no
/// global state), so every failure is reproducible from the test name.
///
/// Also pins the montecarlo spec parsing contract: Table 1 defaults,
/// range-guarded integer fields, and the "spec path + key" error context
/// `greenfpga run` relies on.

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/config_io.hpp"
#include "core/param_distributions.hpp"
#include "device/catalog.hpp"
#include "io/json.hpp"
#include "scenario/sensitivity.hpp"
#include "scenario/spec.hpp"
#include "tech/node.hpp"

namespace greenfpga::scenario {
namespace {

// -- seeded spec generator ----------------------------------------------------

double uniform(std::mt19937& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

int uniform_int(std::mt19937& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

bool coin(std::mt19937& rng) { return uniform_int(rng, 0, 1) == 1; }

std::string random_name(std::mt19937& rng) {
  static constexpr char charset[] =
      "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-./\"\\";
  std::string name;
  const int length = uniform_int(rng, 1, 24);
  for (int i = 0; i < length; ++i) {
    name += charset[static_cast<std::size_t>(
        uniform_int(rng, 0, static_cast<int>(sizeof charset) - 2))];
  }
  return name;
}

device::Domain random_domain(std::mt19937& rng) {
  switch (uniform_int(rng, 0, 2)) {
    case 0:
      return device::Domain::dnn;
    case 1:
      return device::Domain::imgproc;
    default:
      return device::Domain::crypto;
  }
}

std::vector<PlatformRef> random_platforms(std::mt19937& rng, device::Domain domain) {
  std::vector<PlatformRef> platforms;
  for (const char* name : {"asic", "fpga", "gpu", "cpu", "chiplet_fpga"}) {
    if (coin(rng)) {
      PlatformRef ref;
      ref.name = name;
      if (std::string(name) == "fpga" && coin(rng)) {
        ref.chip = device::domain_testcase(domain).fpga;  // pinned chip survives JSON
      }
      platforms.push_back(std::move(ref));
    }
  }
  return platforms;  // empty is valid: the engine defaults to asic+fpga
}

AxisSpec random_axis(std::mt19937& rng) {
  const SweepVariable variable = static_cast<SweepVariable>(uniform_int(rng, 0, 2));
  // app_count values must round into [1, workload::kMaxAppCount].
  const bool counts = variable == SweepVariable::app_count;
  const double lo = counts ? 1.0 : 0.1;
  const double hi = counts ? 1e6 : 1e7;
  switch (uniform_int(rng, 0, 2)) {
    case 0: {
      std::vector<double> values;
      const int count = uniform_int(rng, 1, 6);
      for (int i = 0; i < count; ++i) {
        values.push_back(uniform(rng, lo, hi));
      }
      return AxisSpec::list(variable, std::move(values));
    }
    case 1:
      return AxisSpec::linear(variable, uniform(rng, lo, 10.0), uniform(rng, 10.0, 1e6),
                              uniform_int(rng, 2, 20));
    default:
      return AxisSpec::log(variable, uniform(rng, lo, 100.0), uniform(rng, 100.0, hi),
                           uniform_int(rng, 2, 20));
  }
}

core::ParamDistribution random_distribution(std::mt19937& rng,
                                            const ParameterRange& range) {
  const double low = uniform(rng, range.low, 0.5 * (range.low + range.high));
  const double high = uniform(rng, std::nextafter(low, range.high), range.high);
  switch (uniform_int(rng, 0, 2)) {
    case 0:
      return core::ParamDistribution::uniform(range.name, low, high);
    case 1:
      return core::ParamDistribution::normal(range.name, uniform(rng, low, high),
                                             uniform(rng, 1e-3, high - low + 1.0), low,
                                             high);
    default:
      return core::ParamDistribution::triangular(range.name, low, uniform(rng, low, high),
                                                 high);
  }
}

ScenarioSpec random_spec(ScenarioKind kind, std::mt19937& rng) {
  const device::Domain domain = random_domain(rng);
  ScenarioSpec spec = ScenarioSpec::make(kind, domain);
  spec.name = random_name(rng);
  spec.platforms = random_platforms(rng, domain);
  spec.schedule.app_count = uniform_int(rng, 1, 20);
  spec.schedule.lifetime_years = uniform(rng, 0.1, 10.0);
  spec.schedule.volume = uniform(rng, 1.0, 1e8);
  spec.outputs.per_application = coin(rng);

  if (kind == ScenarioKind::sweep) {
    spec.axes = {random_axis(rng)};
  } else if (kind == ScenarioKind::grid) {
    spec.axes = {random_axis(rng), random_axis(rng)};
  }
  if (coin(rng)) {
    GridProfileSpec profile;
    profile.profile = coin(rng) ? "solar_duck" : "windy_night";
    profile.policy = coin(rng) ? "carbon_aware" : "worst_case";
    spec.grid_profile = profile;
  }
  spec.timeline.horizon_years = uniform(rng, 1.0, 60.0);
  spec.timeline.step_years = uniform(rng, 0.05, 1.0);
  if (kind == ScenarioKind::node_dse) {
    spec.dse.nodes.clear();
    for (const tech::ProcessNode node : tech::all_nodes()) {
      if (coin(rng)) {
        spec.dse.nodes.push_back(node);
      }
    }
    if (coin(rng)) {
      spec.dse.chip = device::domain_testcase(domain).fpga;
    }
  }
  spec.breakeven.solve_app_count = coin(rng);
  spec.breakeven.solve_lifetime = coin(rng);
  spec.breakeven.solve_volume = coin(rng);
  spec.sensitivity.run_tornado = coin(rng);
  spec.sensitivity.run_monte_carlo = coin(rng);
  spec.sensitivity.samples = uniform_int(rng, 1, 4096);
  spec.sensitivity.seed = static_cast<unsigned>(uniform_int(rng, 0, 1 << 30));

  const std::vector<ParameterRange> ranges = table1_ranges();
  spec.sensitivity.ranges.clear();
  for (const ParameterRange& range : ranges) {
    if (coin(rng)) {
      spec.sensitivity.ranges.push_back(range);
    }
  }
  if (spec.sensitivity.ranges.empty() && spec.sensitivity.run_monte_carlo) {
    spec.sensitivity.ranges.push_back(ranges.front());
  }

  if (kind == ScenarioKind::frontier) {
    // Two or more platforms, or none (the default pair): pair a lone draw.
    if (spec.platforms.size() == 1) {
      spec.platforms.push_back(
          PlatformRef{.name = spec.platforms.front().name == "asic" ? "fpga" : "asic"});
    }
    // Always the two paper deployment axes, plus coin-flipped lifetime
    // and node axes: 2-4 distinct variables, every generator shape.
    std::vector<dse::FrontierVariable> chosen{dse::FrontierVariable::app_count,
                                              dse::FrontierVariable::volume};
    if (coin(rng)) {
      chosen.push_back(dse::FrontierVariable::lifetime_years);
    }
    if (coin(rng)) {
      chosen.push_back(dse::FrontierVariable::node);
    }
    spec.frontier.axes.clear();
    for (const dse::FrontierVariable variable : chosen) {
      if (variable == dse::FrontierVariable::node) {
        std::vector<tech::ProcessNode> nodes;
        for (const tech::ProcessNode node : tech::all_nodes()) {
          if (coin(rng)) {
            nodes.push_back(node);
          }
        }
        spec.frontier.axes.push_back(
            dse::FrontierAxisSpec::node_list(std::move(nodes)));
      } else if (coin(rng)) {
        spec.frontier.axes.push_back(dse::FrontierAxisSpec::linear(
            variable, uniform(rng, 0.5, 10.0), uniform(rng, 10.0, 1e6),
            uniform_int(rng, 2, 12)));
      } else if (coin(rng)) {
        spec.frontier.axes.push_back(dse::FrontierAxisSpec::log(
            variable, uniform(rng, 0.5, 100.0), uniform(rng, 100.0, 1e6),
            uniform_int(rng, 2, 12)));
      } else {
        std::vector<double> values;
        const int count = uniform_int(rng, 1, 5);
        for (int i = 0; i < count; ++i) {
          values.push_back(uniform(rng, 0.5, 1e6));
        }
        spec.frontier.axes.push_back(
            dse::FrontierAxisSpec::list(variable, std::move(values)));
      }
    }
    spec.frontier.objective =
        static_cast<dse::FrontierObjective>(uniform_int(rng, 0, 2));
    spec.frontier.confidence_samples = uniform_int(rng, 0, 64);
    spec.frontier.seed = static_cast<unsigned>(uniform_int(rng, 0, 1 << 30));
  }

  if (kind == ScenarioKind::fleet) {
    // Mutate the seeded default fleet section: every scalar knob, region
    // shares/profiles, and a regenerated (valid, peaked) 24-hour trace.
    FleetSpec& fleet = *spec.fleet;
    fleet.horizon_years = uniform(rng, 0.5, 12.0);
    fleet.utilization = uniform(rng, 0.05, 1.0);
    fleet.reconfig_overhead_hours = uniform(rng, 0.0, 4.0);
    fleet.mc_samples = coin(rng) ? uniform_int(rng, 1, 64) : 0;
    for (FleetRegionSpec& region : fleet.regions) {
      region.weight = uniform(rng, 0.1, 5.0);
      region.intensity_scale = uniform(rng, 0.2, 2.0);
      region.profile = coin(rng) ? "uniform" : (coin(rng) ? "solar_duck" : "windy_night");
    }
    for (FleetServiceSpec& service : fleet.services) {
      service.peak_load = uniform(rng, 1.0, 1e6);
      if (coin(rng)) {
        service.trace.assign(24, 0.0);
        for (double& multiplier : service.trace) {
          multiplier = uniform(rng, 0.0, 1.0);
        }
        service.trace[uniform_int(rng, 0, 23)] = 1.0;  // guarantee a peak
      } else {
        service.trace.clear();
      }
    }
  }

  spec.montecarlo.samples = uniform_int(rng, 1, 100000);
  spec.montecarlo.seed = static_cast<unsigned>(uniform_int(rng, 0, 1 << 30));
  spec.montecarlo.distributions.clear();
  for (const ParameterRange& range : ranges) {
    if (coin(rng)) {
      spec.montecarlo.distributions.push_back(random_distribution(rng, range));
    }
  }
  spec.montecarlo.percentiles.clear();
  double percentile = 0.0;
  const int bands = uniform_int(rng, 0, 6);
  for (int i = 0; i < bands; ++i) {
    percentile += uniform(rng, 0.5, 15.0);
    if (percentile > 100.0) {
      break;
    }
    spec.montecarlo.percentiles.push_back(percentile);
  }
  return spec;
}

// -- the round-trip property --------------------------------------------------

class SpecRoundTrip
    : public ::testing::TestWithParam<std::tuple<ScenarioKind, unsigned>> {};

TEST_P(SpecRoundTrip, RandomValidSpecsAreByteIdentical) {
  const auto [kind, seed] = GetParam();
  std::mt19937 rng(seed * 2654435761u + 17u);
  // Several specs per (kind, seed) cell: the generator branches on every
  // coin flip, so each iteration explores a different field combination.
  for (int iteration = 0; iteration < 8; ++iteration) {
    const ScenarioSpec spec = random_spec(kind, rng);
    ASSERT_NO_THROW(spec.validate()) << "generator produced an invalid spec";
    const std::string once = spec_to_json(spec).dump();
    const ScenarioSpec reparsed = spec_from_json(io::parse_json(once));
    const std::string twice = spec_to_json(reparsed).dump();
    ASSERT_EQ(once, twice) << "kind " << to_string(kind) << ", seed " << seed
                           << ", iteration " << iteration;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsTimesSeeds, SpecRoundTrip,
    ::testing::Combine(::testing::Values(ScenarioKind::compare, ScenarioKind::sweep,
                                         ScenarioKind::grid, ScenarioKind::timeline,
                                         ScenarioKind::node_dse, ScenarioKind::breakeven,
                                         ScenarioKind::sensitivity,
                                         ScenarioKind::montecarlo,
                                         ScenarioKind::frontier, ScenarioKind::fleet),
                       ::testing::Range(0u, 5u)),
    [](const ::testing::TestParamInfo<std::tuple<ScenarioKind, unsigned>>& info) {
      return to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// -- montecarlo spec parsing contract -----------------------------------------

TEST(MonteCarloSpecJson, MakeSeedsUniformTable1Distributions) {
  const ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::montecarlo,
                                               device::Domain::dnn);
  const std::vector<ParameterRange> ranges = table1_ranges();
  ASSERT_EQ(spec.montecarlo.distributions.size(), ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(spec.montecarlo.distributions[i].parameter, ranges[i].name);
    EXPECT_EQ(spec.montecarlo.distributions[i].kind, core::DistributionKind::uniform);
    EXPECT_EQ(spec.montecarlo.distributions[i].low, ranges[i].low);
    EXPECT_EQ(spec.montecarlo.distributions[i].high, ranges[i].high);
  }
}

TEST(MonteCarloSpecJson, OmittedDistributionsKeepTable1DefaultEmptyMeansNone) {
  const ScenarioSpec made = ScenarioSpec::make(ScenarioKind::montecarlo,
                                               device::Domain::dnn);
  io::Json json = spec_to_json(made);
  io::Json::Object& montecarlo = json.as_object().at("montecarlo").as_object();
  montecarlo.erase("distributions");
  EXPECT_EQ(spec_from_json(json).montecarlo.distributions.size(),
            table1_ranges().size());
  montecarlo["distributions"] = io::Json::array();
  EXPECT_TRUE(spec_from_json(json).montecarlo.distributions.empty());
}

TEST(MonteCarloSpecJson, BareParameterNameInheritsTable1Support) {
  // {"parameter": "E_des [GWh]"} alone is a complete entry: the named
  // Table 1 range supplies the uniform support.
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::montecarlo,
                                                  device::Domain::dnn));
  io::Json entry = io::Json::object();
  entry["parameter"] = "E_des [GWh]";
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  const ScenarioSpec spec = spec_from_json(json);
  ASSERT_EQ(spec.montecarlo.distributions.size(), 1u);
  EXPECT_EQ(spec.montecarlo.distributions.front().kind, core::DistributionKind::uniform);
  EXPECT_EQ(spec.montecarlo.distributions.front().low, 2.0);
  EXPECT_EQ(spec.montecarlo.distributions.front().high, 7.3);
}

TEST(MonteCarloSpecJson, NormalDefaultsDeriveFromSupport) {
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::montecarlo,
                                                  device::Domain::dnn));
  io::Json entry = io::Json::object();
  entry["parameter"] = "E_des [GWh]";
  entry["kind"] = "normal";
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  const core::ParamDistribution distribution =
      spec_from_json(json).montecarlo.distributions.front();
  EXPECT_EQ(distribution.kind, core::DistributionKind::normal);
  EXPECT_DOUBLE_EQ(distribution.mean, 0.5 * (2.0 + 7.3));
  EXPECT_DOUBLE_EQ(distribution.stddev, (7.3 - 2.0) / 4.0);
}

TEST(MonteCarloSpecJson, UnknownParameterAndKindFailLoudly) {
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::montecarlo,
                                                  device::Domain::dnn));
  io::Json entry = io::Json::object();
  entry["parameter"] = "no such knob";
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);

  entry["parameter"] = "E_des [GWh]";
  entry["kind"] = "cauchy";
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
}

TEST(MonteCarloSpecJson, KindIrrelevantFieldsAreRejectedNotIgnored) {
  // {"mean": ..., "stddev": ...} with "kind" omitted would otherwise
  // silently sample uniform over the full range -- a forgotten kind must
  // fail loudly instead of misconfiguring the distribution.
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::montecarlo,
                                                  device::Domain::dnn));
  io::Json entry = io::Json::object();
  entry["parameter"] = "E_des [GWh]";
  entry["mean"] = 4.5;
  entry["stddev"] = 0.1;
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);

  entry = io::Json::object();
  entry["parameter"] = "E_des [GWh]";
  entry["kind"] = "normal";
  entry["mode"] = 4.0;  // triangular-only field on a normal entry
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);

  entry = io::Json::object();
  entry["parameter"] = "E_des [GWh]";
  entry["kind"] = "triangular";
  entry["stddev"] = 0.1;  // normal-only field on a triangular entry
  json.as_object().at("montecarlo").as_object()["distributions"] =
      io::Json::array({entry});
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
}

TEST(MonteCarloSpecJson, SampleAndSeedFieldsAreRangeGuarded) {
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::montecarlo,
                                                  device::Domain::dnn));
  io::Json::Object& montecarlo = json.as_object().at("montecarlo").as_object();
  // Non-integral, below-range, above-range and type-mismatched values are
  // all ConfigError (never a raw double-to-int cast, which would be UB).
  montecarlo["samples"] = 12.5;
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
  montecarlo["samples"] = 0;
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
  montecarlo["samples"] = 1e12;
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
  montecarlo["samples"] = "many";
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
  montecarlo["samples"] = 64;
  montecarlo["seed"] = -1;
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
  montecarlo["seed"] = 4294967296.0;  // 2^32: one past the largest seed
  EXPECT_THROW((void)spec_from_json(json), core::ConfigError);
  montecarlo["seed"] = 4294967295.0;
  EXPECT_EQ(spec_from_json(json).montecarlo.seed, 4294967295u);
}

TEST(MonteCarloSpecJson, PercentilesMustBeStrictlyIncreasingWithin0To100) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::montecarlo, device::Domain::dnn);
  spec.montecarlo.percentiles = {50.0, 50.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.montecarlo.percentiles = {5.0, 101.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.montecarlo.percentiles = {-1.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.montecarlo.percentiles = {};
  EXPECT_NO_THROW(spec.validate());
}

TEST(MonteCarloSpecJson, InvalidDistributionParametersFailValidation) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::montecarlo, device::Domain::dnn);
  spec.montecarlo.distributions = {
      core::ParamDistribution::triangular("E_des [GWh]", 2.0, 9.0, 7.3)};  // mode > high
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.montecarlo.distributions = {
      core::ParamDistribution::normal("E_des [GWh]", 4.0, 0.0, 2.0, 7.3)};  // stddev 0
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.montecarlo.distributions = {
      core::ParamDistribution::uniform("not a knob", 0.0, 1.0)};  // unknown name
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Duplicate entries would sample last-writer-wins, silently dropping
  // the earlier distribution.
  spec.montecarlo.distributions = {
      core::ParamDistribution::uniform("E_des [GWh]", 2.0, 7.3),
      core::ParamDistribution::normal("E_des [GWh]", 4.0, 1.0, 2.0, 7.3)};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// -- distribution sampling math -----------------------------------------------

TEST(ParamDistributionSampling, InverseCdfsHitKnownQuantiles) {
  const core::ParamDistribution uniform_dist =
      core::ParamDistribution::uniform("E_des [GWh]", 2.0, 7.3);
  EXPECT_DOUBLE_EQ(uniform_dist.sample(0.5), 0.5 * (2.0 + 7.3));
  EXPECT_NEAR(uniform_dist.sample(1e-9), 2.0, 1e-6);

  // A symmetric truncation window keeps the normal's median at its mean.
  const core::ParamDistribution normal_dist =
      core::ParamDistribution::normal("E_des [GWh]", 4.0, 1.0, 0.0, 8.0);
  EXPECT_NEAR(normal_dist.sample(0.5), 4.0, 1e-9);
  // ~84th percentile of N(4, 1) is mean + 1 stddev (truncation at 4
  // stddev barely moves it).
  EXPECT_NEAR(normal_dist.sample(0.8413447460685429), 5.0, 1e-3);

  // Triangular: CDF at the mode is (mode-low)/(high-low).
  const core::ParamDistribution tri =
      core::ParamDistribution::triangular("E_des [GWh]", 2.0, 3.0, 7.0);
  EXPECT_DOUBLE_EQ(tri.sample(0.2), 3.0);
  EXPECT_NEAR(tri.sample(1.0 - 1e-12), 7.0, 1e-4);
}

TEST(ParamDistributionSampling, SamplesAreMonotoneInUAndStayInSupport) {
  const std::vector<core::ParamDistribution> distributions = {
      core::ParamDistribution::uniform("E_des [GWh]", 2.0, 7.3),
      core::ParamDistribution::normal("E_des [GWh]", 4.0, 5.0, 2.0, 7.3),
      core::ParamDistribution::triangular("E_des [GWh]", 2.0, 2.5, 7.3),
  };
  for (const core::ParamDistribution& distribution : distributions) {
    double previous = distribution.low;
    for (int i = 1; i < 200; ++i) {
      const double u = static_cast<double>(i) / 200.0;
      const double value = distribution.sample(u);
      EXPECT_GE(value, distribution.low) << core::to_string(distribution.kind);
      EXPECT_LE(value, distribution.high) << core::to_string(distribution.kind);
      EXPECT_GE(value, previous) << core::to_string(distribution.kind) << " at u=" << u;
      previous = value;
    }
  }
  EXPECT_THROW((void)distributions[0].sample(0.0), std::invalid_argument);
  EXPECT_THROW((void)distributions[0].sample(1.0), std::invalid_argument);
}

TEST(ParamDistributionSampling, CounterStreamIsStatelessAndDecorrelated) {
  // Same (seed, sample, dimension) -> same variate, any other coordinate
  // -> a different one; the stream never leaves the open unit interval.
  EXPECT_EQ(core::counter_uniform01(42, 7, 3), core::counter_uniform01(42, 7, 3));
  EXPECT_NE(core::counter_uniform01(42, 7, 3), core::counter_uniform01(42, 8, 3));
  EXPECT_NE(core::counter_uniform01(42, 7, 3), core::counter_uniform01(42, 7, 4));
  EXPECT_NE(core::counter_uniform01(43, 7, 3), core::counter_uniform01(42, 7, 3));
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const double u = core::counter_uniform01(1, i, 0);
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  // Crude uniformity check: the mean of 4096 variates is ~0.5.
  double sum = 0.0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    sum += core::counter_uniform01(9, i, 2);
  }
  EXPECT_NEAR(sum / 4096.0, 0.5, 0.02);
}

TEST(ParamDistributionSampling, DegenerateNormalWindowCollapsesToNearestBound) {
  // A truncation window many stddevs into one tail makes both CDF values
  // round to the same double; the conditional mass sits at the bound
  // nearest the mean, so that is what every sample must return.
  const core::ParamDistribution above =
      core::ParamDistribution::normal("E_des [GWh]", 0.0, 0.1, 30.0, 40.0);
  const core::ParamDistribution below =
      core::ParamDistribution::normal("E_des [GWh]", 0.0, 0.1, -40.0, -30.0);
  for (const double u : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(above.sample(u), 30.0);   // nearest bound, not high = 40
    EXPECT_EQ(below.sample(u), -30.0);  // nearest bound, not low = -40
  }
}

TEST(ParamDistributionSampling, InverseNormalCdfRoundTripsTheCdf) {
  for (const double p : {0.001, 0.02, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    const double x = core::inverse_normal_cdf(p);
    const double back = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(back, p, 1e-12) << "p=" << p;
  }
  EXPECT_THROW((void)core::inverse_normal_cdf(0.0), std::invalid_argument);
  EXPECT_THROW((void)core::inverse_normal_cdf(1.0), std::invalid_argument);
}

// -- parse-error context (the `greenfpga run` fix) ----------------------------

TEST(SpecErrorContext, LoadSpecNamesThePathAndTheKey) {
  const std::string path = ::testing::TempDir() + "/greenfpga_bad_spec.json";
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::sweep,
                                                  device::Domain::dnn));
  json.as_object()["axes"] = io::Json::array({[] {
    io::Json axis = io::Json::object();
    axis["variable"] = "volume";
    axis["scale"] = "linear";
    axis["from"] = "low";  // type error: must name axis.from in the message
    axis["to"] = 10.0;
    axis["count"] = 5;
    return axis;
  }()});
  io::write_json_file(path, json);
  try {
    (void)load_spec(path);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("axis.from"), std::string::npos) << message;
  }
}

TEST(SpecErrorContext, MalformedJsonNamesThePath) {
  const std::string path = ::testing::TempDir() + "/greenfpga_malformed_spec.json";
  {
    std::ofstream file(path);
    file << "{ not json";
  }
  try {
    (void)load_spec(path);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos) << error.what();
  }
}

TEST(SpecErrorContext, ScheduleAndPercentileFieldsNameTheKey) {
  io::Json json = spec_to_json(ScenarioSpec::make(ScenarioKind::compare,
                                                  device::Domain::dnn));
  json.as_object().at("schedule").as_object()["volume"] = "lots";
  try {
    (void)spec_from_json(json);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("schedule.volume"), std::string::npos)
        << error.what();
  }

  io::Json mc_json = spec_to_json(ScenarioSpec::make(ScenarioKind::montecarlo,
                                                     device::Domain::dnn));
  mc_json.as_object().at("montecarlo").as_object()["percentiles"] =
      io::Json::array({io::Json("p95")});
  try {
    (void)spec_from_json(mc_json);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("montecarlo.percentiles"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace greenfpga::scenario
