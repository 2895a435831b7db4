/// Tests for the unified evaluation API: ScenarioSpec JSON round-trip,
/// PlatformRegistry, Engine dispatch, engine-vs-direct-model equivalence
/// for the compare, sweep, grid, breakeven, node_dse, timeline and
/// sensitivity kinds, and thread-count determinism.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

#include "core/comparator.hpp"
#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "device/platform_registry.hpp"
#include "scenario/breakeven.hpp"
#include "scenario/engine.hpp"
#include "scenario/heatmap.hpp"
#include "scenario/node_dse.hpp"
#include "scenario/result_io.hpp"
#include "scenario/sensitivity.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/timeline.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using units::unit::years;

void expect_same_breakdown(const core::CfpBreakdown& a, const core::CfpBreakdown& b) {
  EXPECT_EQ(a.design.canonical(), b.design.canonical());
  EXPECT_EQ(a.manufacturing.canonical(), b.manufacturing.canonical());
  EXPECT_EQ(a.packaging.canonical(), b.packaging.canonical());
  EXPECT_EQ(a.eol.canonical(), b.eol.canonical());
  EXPECT_EQ(a.operational.canonical(), b.operational.canonical());
  EXPECT_EQ(a.app_dev.canonical(), b.app_dev.canonical());
}

ScenarioSpec sweep_spec() {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, device::Domain::dnn);
  spec.name = "sweep";
  spec.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 8, 8)};
  return spec;
}

ScenarioSpec grid_spec(int nx = 5, int ny = 4) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::grid, device::Domain::dnn);
  spec.name = "grid";
  spec.axes = {AxisSpec::log(SweepVariable::volume, 1e4, 1e6, nx),
               AxisSpec::linear(SweepVariable::lifetime_years, 0.5, 2.5, ny)};
  return spec;
}

// -- JSON round-trip ----------------------------------------------------------

TEST(ScenarioSpecJson, RoundTripIsByteIdentical) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(ScenarioSpec::make(ScenarioKind::compare, device::Domain::crypto));
  specs.back().platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                            PlatformRef{.name = "gpu"}};
  specs.push_back(sweep_spec());
  specs.push_back(grid_spec());
  specs.back().grid_profile = GridProfileSpec{.profile = "solar_duck",
                                              .policy = "carbon_aware"};
  specs.push_back(ScenarioSpec::make(ScenarioKind::timeline, device::Domain::imgproc));
  specs.back().timeline = TimelineSpec{.horizon_years = 30.0, .step_years = 0.5};
  specs.push_back(ScenarioSpec::make(ScenarioKind::node_dse, device::Domain::dnn));
  specs.back().dse.nodes = {tech::ProcessNode::n10, tech::ProcessNode::n7};
  specs.back().dse.chip = device::domain_testcase(device::Domain::dnn).fpga;
  specs.push_back(ScenarioSpec::make(ScenarioKind::breakeven, device::Domain::dnn));
  specs.back().breakeven.solve_volume = false;
  specs.push_back(ScenarioSpec::make(ScenarioKind::sensitivity, device::Domain::dnn));
  specs.back().sensitivity.samples = 32;
  specs.back().sensitivity.ranges = table1_ranges();
  // A platform pinned to an explicit chip survives the round-trip too.
  specs.push_back(ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn));
  specs.back().platforms = {
      PlatformRef{.name = "asic"},
      PlatformRef{.name = "my-fpga",
                  .chip = device::domain_testcase(device::Domain::dnn).fpga}};

  for (const ScenarioSpec& spec : specs) {
    const std::string once = spec_to_json(spec).dump();
    const ScenarioSpec reparsed = spec_from_json(io::parse_json(once));
    const std::string twice = spec_to_json(reparsed).dump();
    EXPECT_EQ(once, twice) << "kind " << to_string(spec.kind);
  }
}

TEST(ScenarioSpecJson, UnknownKeysFailLoudly) {
  io::Json json = spec_to_json(sweep_spec());
  json["bogus_key"] = 1.0;
  EXPECT_THROW(spec_from_json(json), core::ConfigError);
}

TEST(ScenarioSpecJson, UnknownKindAndVariableFail) {
  io::Json json = spec_to_json(sweep_spec());
  json["kind"] = "frobnicate";
  EXPECT_THROW(spec_from_json(json), core::ConfigError);
}

TEST(ScenarioSpecJson, SensitivityRangesSerialiseByName) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sensitivity, device::Domain::dnn);
  spec.sensitivity.ranges = {table1_ranges().front()};
  const ScenarioSpec reparsed = spec_from_json(spec_to_json(spec));
  ASSERT_EQ(reparsed.sensitivity.ranges.size(), 1u);
  EXPECT_EQ(reparsed.sensitivity.ranges.front().name, spec.sensitivity.ranges.front().name);
}

TEST(ScenarioSpecValidate, RejectsAxisArityMismatch) {
  ScenarioSpec spec = sweep_spec();
  spec.axes.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = grid_spec();
  spec.axes.pop_back();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidate, RejectsAxesOverExplicitSchedule) {
  ScenarioSpec spec = sweep_spec();
  spec.schedule.explicit_schedule = core::paper_schedule(device::Domain::dnn);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidate, TimelineAndBreakevenRejectExplicitSchedules) {
  // These kinds read only the homogeneous fields; an application list
  // would be silently dropped, so it is rejected up front.
  for (const ScenarioKind kind : {ScenarioKind::timeline, ScenarioKind::breakeven}) {
    ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
    spec.schedule.explicit_schedule = core::paper_schedule(device::Domain::dnn);
    EXPECT_THROW(spec.validate(), std::invalid_argument) << to_string(kind);
  }
}

TEST(ScenarioSpecValidate, TimelineSampleCountIsBounded) {
  // horizon / step + 1 samples: an overflowing or gigabyte series is
  // rejected up front, naming the limit; the boundary itself is allowed.
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::timeline, device::Domain::dnn);
  for (const auto& [horizon, step] : {std::pair{1e7, 1e-3}, std::pair{45.0, 1e-300},
                                      std::pair{2000.0, 1e-4}}) {
    spec.timeline = {.horizon_years = horizon, .step_years = step};
    try {
      spec.validate();
      ADD_FAILURE() << "accepted horizon " << horizon << ", step " << step;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("at most 1000000"), std::string::npos)
          << error.what();
    }
  }
  spec.timeline = {.horizon_years = 999'999.0, .step_years = 1.0};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpecValidate, AppCountAxisValuesAreBounded) {
  // Each point builds llround(value) applications, so every app_count axis
  // value must round into [1, workload::kMaxAppCount]; 4e8 used to
  // reserve 4e8 applications and die of std::bad_alloc.
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, device::Domain::dnn);
  const std::vector<AxisSpec> rejected = {
      AxisSpec::linear(SweepVariable::app_count, 1, 4e8, 2),
      AxisSpec::log(SweepVariable::app_count, 1, 2e6, 3),
      AxisSpec::list(SweepVariable::app_count, {3, 1e300}),
      AxisSpec::list(SweepVariable::app_count, {0.49}),
      AxisSpec::list(SweepVariable::app_count, {1'000'000.5}),
      AxisSpec::list(SweepVariable::app_count, {-2}),
      AxisSpec::list(SweepVariable::app_count, {std::nan("")}),
  };
  for (const AxisSpec& axis : rejected) {
    spec.axes = {axis};
    try {
      spec.validate();
      ADD_FAILURE() << "accepted app_count axis ending at " << axis.values().back();
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("axis app_count"), std::string::npos) << message;
      EXPECT_NE(message.find("[1, 1000000]"), std::string::npos) << message;
    }
  }
  // The bounds themselves, after rounding, are allowed.
  spec.axes = {AxisSpec::list(SweepVariable::app_count, {0.5, 1'000'000.4})};
  EXPECT_NO_THROW(spec.validate());
  // Other axes are not counts.
  spec.axes = {AxisSpec::list(SweepVariable::volume, {4e8})};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpecJson, SensitivityRangesDefaultToTable1AndEmptyMeansNone) {
  // make() seeds the Table 1 ranges; omitting "ranges" in JSON keeps them.
  const ScenarioSpec made = ScenarioSpec::make(ScenarioKind::sensitivity,
                                               device::Domain::dnn);
  EXPECT_EQ(made.sensitivity.ranges.size(), table1_ranges().size());
  io::Json json = spec_to_json(made);
  io::Json::Object& sensitivity =
      json.as_object().at("sensitivity").as_object();
  sensitivity.erase("ranges");
  EXPECT_EQ(spec_from_json(json).sensitivity.ranges.size(), table1_ranges().size());
  // An explicit empty list means "perturb nothing": the tornado is empty.
  sensitivity["ranges"] = io::Json::array();
  ScenarioSpec none = spec_from_json(json);
  EXPECT_TRUE(none.sensitivity.ranges.empty());
  none.sensitivity.run_monte_carlo = false;
  EXPECT_TRUE(Engine(EngineOptions{.threads = 1}).run(none).tornado.empty());
}

// -- PlatformRegistry ---------------------------------------------------------

TEST(PlatformRegistry, BuiltinsResolveAllFivePlatforms) {
  const device::PlatformRegistry& registry = device::PlatformRegistry::builtins();
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"asic", "chiplet_fpga", "cpu",
                                                        "fpga", "gpu"}));
  EXPECT_EQ(registry.resolve("asic", device::Domain::dnn).kind, device::ChipKind::asic);
  EXPECT_EQ(registry.resolve("fpga", device::Domain::dnn).kind, device::ChipKind::fpga);
  EXPECT_EQ(registry.resolve("gpu", device::Domain::crypto).kind, device::ChipKind::gpu);
  EXPECT_EQ(registry.resolve("cpu", device::Domain::imgproc).kind, device::ChipKind::cpu);
  EXPECT_GT(registry.resolve("chiplet_fpga", device::Domain::dnn).chiplet_count, 1);
}

TEST(PlatformRegistry, UnknownNameThrowsListingKnownNames) {
  try {
    (void)device::PlatformRegistry::builtins().resolve("tpu", device::Domain::dnn);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    EXPECT_NE(std::string(error.what())
                  .find("(registered: asic, chiplet_fpga, cpu, fpga, gpu)"),
              std::string::npos)
        << error.what();
  }
}

TEST(PlatformRegistry, CustomPlatformsAreResolvable) {
  device::PlatformRegistry registry = device::PlatformRegistry::with_builtins();
  registry.add("fpga-7nm", [](device::Domain domain) {
    return retarget_to_node(device::domain_testcase(domain).fpga, tech::ProcessNode::n7);
  });
  EXPECT_TRUE(registry.contains("fpga-7nm"));
  EXPECT_EQ(registry.resolve("fpga-7nm", device::Domain::dnn).node, tech::ProcessNode::n7);

  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga-7nm"}};
  const Engine engine(EngineOptions{.threads = 1, .registry = &registry});
  const ScenarioResult result = engine.run(spec);
  EXPECT_EQ(result.resolved_chips[1].node, tech::ProcessNode::n7);
}

TEST(EngineErrors, UnknownPlatformNameThrows) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  spec.platforms = {PlatformRef{.name = "quantum"}};
  EXPECT_THROW((void)Engine(EngineOptions{.threads = 1}).run(spec), std::out_of_range);
}

// -- engine vs direct model evaluation (the independent reference) -----------

TEST(EngineEquivalence, CompareMatchesDirectModelEvaluation) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  const workload::Schedule schedule = core::paper_schedule(device::Domain::dnn);
  const core::Comparison direct = core::compare(model, testcase, schedule);

  const ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  const core::Comparison via_engine = Engine(EngineOptions{.threads = 1}).run(spec).comparison();

  expect_same_breakdown(direct.asic.total, via_engine.asic.total);
  expect_same_breakdown(direct.fpga.total, via_engine.fpga.total);
  EXPECT_EQ(direct.asic.chips_manufactured, via_engine.asic.chips_manufactured);
  EXPECT_EQ(direct.ratio(), via_engine.ratio());
}

TEST(EngineEquivalence, SweepShimMatchesDirectLoop) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  const core::SweepDefaults defaults = core::paper_sweep_defaults();

  const SweepSeries series = Engine().run(sweep_spec()).sweep_series();

  // Independent reference: hand-rolled direct model loop.
  ASSERT_EQ(series.x.size(), 8u);
  for (int k = 1; k <= 8; ++k) {
    const workload::Schedule schedule = core::paper_schedule(
        device::Domain::dnn, k, defaults.app_lifetime, defaults.app_volume);
    const core::Comparison direct = core::compare(model, testcase, schedule);
    EXPECT_EQ(series.x[static_cast<std::size_t>(k - 1)], static_cast<double>(k));
    expect_same_breakdown(series.asic[static_cast<std::size_t>(k - 1)], direct.asic.total);
    expect_same_breakdown(series.fpga[static_cast<std::size_t>(k - 1)], direct.fpga.total);
  }
}

TEST(EngineEquivalence, LifetimeAndVolumeSweepsMatchDirectLoops) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::crypto);
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, device::Domain::crypto);
  spec.schedule.app_count = 4;

  const std::vector<double> lifetimes = linspace(0.5, 2.5, 5);
  spec.axes = {AxisSpec::list(SweepVariable::lifetime_years, lifetimes)};
  const SweepSeries by_lifetime = Engine().run(spec).sweep_series();
  for (std::size_t i = 0; i < lifetimes.size(); ++i) {
    const workload::Schedule schedule =
        core::paper_schedule(testcase.domain, 4, lifetimes[i] * years, 1e6);
    const core::Comparison direct = core::compare(model, testcase, schedule);
    expect_same_breakdown(by_lifetime.asic[i], direct.asic.total);
    expect_same_breakdown(by_lifetime.fpga[i], direct.fpga.total);
  }

  const std::vector<double> volumes = logspace(1e4, 1e6, 5);
  spec.axes = {AxisSpec::list(SweepVariable::volume, volumes)};
  const SweepSeries by_volume = Engine().run(spec).sweep_series();
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    const workload::Schedule schedule =
        core::paper_schedule(testcase.domain, 4, 2.0 * years, volumes[i]);
    const core::Comparison direct = core::compare(model, testcase, schedule);
    expect_same_breakdown(by_volume.asic[i], direct.asic.total);
    expect_same_breakdown(by_volume.fpga[i], direct.fpga.total);
  }
}

TEST(EngineEquivalence, HeatmapShimMatchesDirectLoop) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);

  const std::vector<double> app_counts{1, 3, 5, 7};
  const std::vector<double> lifetimes{0.5, 1.5, 2.5};
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::grid, device::Domain::dnn);
  spec.axes = {AxisSpec::list(SweepVariable::app_count, app_counts),
               AxisSpec::list(SweepVariable::lifetime_years, lifetimes)};
  const Heatmap map = Engine().run(spec).heatmap();

  ASSERT_EQ(map.ratio.size(), lifetimes.size());
  for (std::size_t iy = 0; iy < lifetimes.size(); ++iy) {
    ASSERT_EQ(map.ratio[iy].size(), app_counts.size());
    for (std::size_t ix = 0; ix < app_counts.size(); ++ix) {
      const workload::Schedule schedule =
          core::paper_schedule(testcase.domain, static_cast<int>(app_counts[ix]),
                               lifetimes[iy] * years, 1e6);
      EXPECT_EQ(map.ratio[iy][ix], core::compare(model, testcase, schedule).ratio());
    }
  }
}

TEST(EngineEquivalence, BreakevenShimMatchesPrimitives) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  const BreakevenContext context;

  const BreakevenReport report =
      *Engine().run(ScenarioSpec::make(ScenarioKind::breakeven, device::Domain::dnn))
           .breakeven;
  EXPECT_EQ(report.app_count, solve_app_count_breakeven(model, testcase, context));
  EXPECT_EQ(report.lifetime_years, solve_lifetime_breakeven(model, testcase, context));
  EXPECT_EQ(report.volume, solve_volume_breakeven(model, testcase, context));
}

TEST(EngineEquivalence, NodeDseShimMatchesDirectLoop) {
  const core::LifecycleModel model(core::paper_suite());
  const workload::Schedule schedule = core::paper_schedule(device::Domain::dnn);
  const device::ChipSpec fpga = device::domain_testcase(device::Domain::dnn).fpga;

  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::node_dse, device::Domain::dnn);
  spec.schedule.explicit_schedule = schedule;
  spec.dse.chip = fpga;
  const std::vector<NodeCandidate> via_engine = Engine().run(spec).candidates;

  // Independent reference: retarget + evaluate + rank by hand.
  std::vector<NodeCandidate> direct;
  for (const tech::ProcessNode node : tech::all_nodes()) {
    try {
      direct.push_back(
          evaluate_node_candidate(model, schedule, retarget_to_node(fpga, node)));
    } catch (const std::invalid_argument&) {
      continue;
    }
  }
  rank_node_candidates(direct);

  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_engine[i].chip.node, direct[i].chip.node);
    expect_same_breakdown(via_engine[i].lifecycle, direct[i].lifecycle);
    EXPECT_EQ(via_engine[i].total_vs_best, direct[i].total_vs_best);
  }
}

TEST(EngineEquivalence, TimelineShimMatchesPrimitive) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);

  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::timeline, device::Domain::dnn);
  spec.schedule.lifetime_years = 1.0;
  spec.timeline = {.horizon_years = 30.0, .step_years = 0.5};
  const TimelineSeries via_engine = *Engine().run(spec).timeline;
  const TimelineSeries direct = simulate_timeline(model, testcase, 30.0, 1.0, 1e6, 0.5);

  EXPECT_EQ(via_engine.time_years, direct.time_years);
  EXPECT_EQ(via_engine.asic_cumulative_kg, direct.asic_cumulative_kg);
  EXPECT_EQ(via_engine.fpga_cumulative_kg, direct.fpga_cumulative_kg);
  EXPECT_EQ(via_engine.fpga_purchase_years, direct.fpga_purchase_years);
}

TEST(EngineEquivalence, SensitivityShimsMatchPrimitives) {
  const core::ModelSuite base = core::paper_suite();
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  const workload::Schedule schedule = core::paper_schedule(device::Domain::dnn);
  const std::vector<ParameterRange> ranges = table1_ranges();

  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sensitivity, device::Domain::dnn);
  spec.schedule.explicit_schedule = schedule;
  spec.sensitivity.samples = 64;
  spec.sensitivity.seed = 7;
  const ScenarioResult result = Engine().run(spec);

  const std::vector<TornadoEntry> direct =
      detail::tornado_analysis(base, testcase, schedule, ranges);
  ASSERT_EQ(result.tornado.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(result.tornado[i].name, direct[i].name);
    EXPECT_EQ(result.tornado[i].ratio_at_low, direct[i].ratio_at_low);
    EXPECT_EQ(result.tornado[i].ratio_at_high, direct[i].ratio_at_high);
  }

  const MonteCarloResult& mc_engine = *result.monte_carlo;
  const MonteCarloResult mc_direct =
      detail::monte_carlo_analysis(base, testcase, schedule, ranges, 64, 7);
  EXPECT_EQ(mc_engine.mean, mc_direct.mean);
  EXPECT_EQ(mc_engine.stddev, mc_direct.stddev);
  EXPECT_EQ(mc_engine.p05, mc_direct.p05);
  EXPECT_EQ(mc_engine.p95, mc_direct.p95);
  EXPECT_EQ(mc_engine.fpga_win_fraction, mc_direct.fpga_win_fraction);
}

// -- determinism and parallel semantics ---------------------------------------

TEST(EngineDeterminism, GridIsBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = grid_spec(10, 10);
  const ScenarioResult one = Engine(EngineOptions{.threads = 1}).run(spec);
  const ScenarioResult four = Engine(EngineOptions{.threads = 4}).run(spec);
  const ScenarioResult seven = Engine(EngineOptions{.threads = 7}).run(spec);

  ASSERT_EQ(one.points.size(), 100u);
  ASSERT_EQ(four.points.size(), one.points.size());
  ASSERT_EQ(seven.points.size(), one.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].coords, four.points[i].coords);
    for (std::size_t p = 0; p < one.points[i].platforms.size(); ++p) {
      expect_same_breakdown(one.points[i].platforms[p].total,
                            four.points[i].platforms[p].total);
      expect_same_breakdown(one.points[i].platforms[p].total,
                            seven.points[i].platforms[p].total);
    }
  }
}

TEST(EngineDeterminism, InvalidSuiteReportsAsExceptionOnEveryThreadCount) {
  // A bad suite throws from the per-worker model *constructor*; that must
  // surface as the original exception, never std::terminate.
  ScenarioSpec spec = grid_spec(4, 4);
  spec.suite.operation.duty_cycle = 1.7;
  EXPECT_THROW((void)Engine(EngineOptions{.threads = 1}).run(spec),
               std::invalid_argument);
  EXPECT_THROW((void)Engine(EngineOptions{.threads = 4}).run(spec),
               std::invalid_argument);
}

TEST(ScenarioSpecDefaults, MakeSeedsScheduleFromPaperSweepDefaults) {
  const core::SweepDefaults defaults = core::paper_sweep_defaults();
  const ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  EXPECT_EQ(spec.schedule.app_count, defaults.app_count);
  EXPECT_EQ(spec.schedule.lifetime_years, defaults.app_lifetime.in(years));
  EXPECT_EQ(spec.schedule.volume, defaults.app_volume);
}

TEST(EngineDeterminism, WorkerExceptionsPropagate) {
  // A log axis materialises lazily inside the engine run; an invalid axis
  // generator must surface as the original exception, not a crash.
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, device::Domain::dnn);
  spec.axes = {AxisSpec::list(SweepVariable::volume, {1e6, -5.0, 1e6, 1e6})};
  EXPECT_THROW((void)Engine(EngineOptions{.threads = 4}).run(spec),
               std::invalid_argument);
}

TEST(EngineDeterminism, BadVolumeThrowsTheMaterialiseErrorOnBothExecutors) {
  // The per-worker schedule buffer checks each point's volume as
  // ScheduleSpec::materialise does, with the same message, whether the
  // bad value is the first point a worker sees or comes after a good one.
  ScheduleSpec bad;
  bad.volume = -5.0;
  std::string expected;
  try {
    (void)bad.materialise(device::Domain::dnn);
  } catch (const std::invalid_argument& error) {
    expected = error.what();
  }
  ASSERT_FALSE(expected.empty());
  for (const std::vector<double>& volumes :
       {std::vector<double>{-5.0, 1e6}, std::vector<double>{1e6, -5.0, 1e6, 1e6}}) {
    ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, device::Domain::dnn);
    spec.axes = {AxisSpec::list(SweepVariable::volume, volumes)};
    for (const int threads : {1, 4}) {
      const Engine engine(EngineOptions{.threads = threads});
      try {
        (void)engine.run(spec);
        ADD_FAILURE() << "run accepted a negative volume";
      } catch (const std::invalid_argument& error) {
        EXPECT_EQ(std::string(error.what()), expected);
      }
      try {
        (void)engine.run_batch({spec});
        ADD_FAILURE() << "run_batch accepted a negative volume";
      } catch (const std::invalid_argument& error) {
        EXPECT_EQ(std::string(error.what()), expected);
      }
    }
  }
}

TEST(EngineDeterminism, AppCountGridBytesMatchAtAnyWidthAndInABatch) {
  // An app_count x volume grid changes the application count every point
  // along axis 0, so every worker rebuilds its schedule buffer, mid-block
  // and across blocks; a lifetime x app_count grid changes it once per
  // row.  Every executor and width must write the same bytes.
  ScenarioSpec by_count = ScenarioSpec::make(ScenarioKind::grid, device::Domain::dnn);
  // Both grids are above the pool's inline cutoff (core::kInlineWork).
  by_count.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 12, 12),
                   AxisSpec::log(SweepVariable::volume, 1e3, 1e7, 24)};
  ScenarioSpec by_row = ScenarioSpec::make(ScenarioKind::grid, device::Domain::imgproc);
  by_row.axes = {AxisSpec::linear(SweepVariable::lifetime_years, 0.5, 4.0, 30),
                 AxisSpec::list(SweepVariable::app_count, {3, 1, 12, 12, 2})};
  for (const ScenarioSpec& spec : {by_count, by_row}) {
    const std::string serial = result_bytes(Engine(EngineOptions{.threads = 1}).run(spec));
    for (const int threads : {1, 2, 8}) {
      const Engine engine(EngineOptions{.threads = threads});
      EXPECT_EQ(result_bytes(engine.run(spec)), serial) << threads << " threads";
      // A batch interleaves the spec's tasks with another spec's, so a
      // worker's buffer also moves between domains.
      const std::vector<ScenarioResult> batch = engine.run_batch({spec, by_count, spec});
      EXPECT_EQ(result_bytes(batch[0]), serial) << threads << " threads, batch";
      EXPECT_EQ(result_bytes(batch[2]), serial) << threads << " threads, batch";
    }
  }
}

TEST(EngineDeterminism, BatchOfLargeSpecsMatchesSoloRunsThroughNestedPools) {
  // Every spec here is above the pool's inline cutoff, so the batch's pool
  // task for it makes a nested parallel call that posts helpers of its
  // own while the other specs hold the pool.
  ScenarioSpec dnn_grid = grid_spec(50, 50);
  ScenarioSpec crypto_grid = grid_spec(50, 50);
  crypto_grid.domain = device::Domain::crypto;
  ScenarioSpec mc = ScenarioSpec::make(ScenarioKind::montecarlo, device::Domain::dnn);
  mc.montecarlo.samples = 512;
  const std::vector<ScenarioSpec> specs{
      dnn_grid, crypto_grid,
      ScenarioSpec::make(ScenarioKind::frontier, device::Domain::imgproc), mc};
  const std::vector<ScenarioResult> batch =
      Engine(EngineOptions{.threads = 4}).run_batch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  const Engine serial(EngineOptions{.threads = 1});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result_document(batch[i]), result_document(serial.run(specs[i])))
        << "spec " << i << " (" << to_string(specs[i].kind) << ")";
  }
}

TEST(EngineOutputs, SkippingPerApplicationRowsKeepsTotalsBitIdentical) {
  // Rows are built only when kept; the totals add up in the same order
  // either way.  Compare keeps rows regardless, so its check is that the
  // flag leaves it untouched.
  ScenarioSpec compare = ScenarioSpec::make(ScenarioKind::compare, device::Domain::crypto);
  compare.platforms = {{.name = "asic"}, {.name = "fpga"}, {.name = "gpu"}};
  for (ScenarioSpec spec : {grid_spec(6, 5), sweep_spec(), compare}) {
    spec.outputs.per_application = false;
    const ScenarioResult lean = Engine(EngineOptions{.threads = 1}).run(spec);
    spec.outputs.per_application = true;
    const ScenarioResult full = Engine(EngineOptions{.threads = 3}).run(spec);
    ASSERT_EQ(lean.points.size(), full.points.size()) << to_string(spec.kind);
    for (std::size_t i = 0; i < lean.points.size(); ++i) {
      ASSERT_EQ(lean.points[i].platforms.size(), full.points[i].platforms.size());
      for (std::size_t p = 0; p < lean.points[i].platforms.size(); ++p) {
        const core::PlatformCfp& a = lean.points[i].platforms[p];
        const core::PlatformCfp& b = full.points[i].platforms[p];
        for (const auto& component :
             {&core::CfpBreakdown::design, &core::CfpBreakdown::manufacturing,
              &core::CfpBreakdown::packaging, &core::CfpBreakdown::eol,
              &core::CfpBreakdown::operational, &core::CfpBreakdown::app_dev}) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>((a.total.*component).canonical()),
                    std::bit_cast<std::uint64_t>((b.total.*component).canonical()));
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.chips_manufactured),
                  std::bit_cast<std::uint64_t>(b.chips_manufactured));
        EXPECT_EQ(a.per_application.empty(), spec.kind != ScenarioKind::compare);
        EXPECT_FALSE(b.per_application.empty());
      }
    }
  }
}

TEST(EngineOutputs, PerApplicationDroppedForGridsKeptForCompare) {
  const ScenarioResult grid = Engine(EngineOptions{.threads = 1}).run(grid_spec());
  for (const EvalPoint& point : grid.points) {
    for (const core::PlatformCfp& platform : point.platforms) {
      EXPECT_TRUE(platform.per_application.empty());
    }
  }

  ScenarioSpec verbose = grid_spec();
  verbose.outputs.per_application = true;
  const ScenarioResult kept = Engine(EngineOptions{.threads = 1}).run(verbose);
  EXPECT_FALSE(kept.points.front().platforms.front().per_application.empty());

  const ScenarioResult compare = Engine(EngineOptions{.threads = 1})
                                     .run(ScenarioSpec::make(ScenarioKind::compare,
                                                             device::Domain::dnn));
  EXPECT_FALSE(compare.points.front().platforms.front().per_application.empty());
}

TEST(EngineOptionsTest, DefaultThreadsHonoursEnvironment) {
  ::setenv("GREENFPGA_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(Engine::default_threads(), 3);
  EXPECT_EQ(Engine().threads(), 3);
  ::setenv("GREENFPGA_THREADS", "not-a-number", 1);
  EXPECT_GE(Engine::default_threads(), 1);  // falls back to hardware concurrency
  ::unsetenv("GREENFPGA_THREADS");
  EXPECT_GE(Engine::default_threads(), 1);
  EXPECT_EQ(Engine(EngineOptions{.threads = 2}).threads(), 2);
  // Requests beyond the pool bound are clamped, not honoured literally.
  EXPECT_EQ(Engine(EngineOptions{.threads = 100000}).threads(), Engine::kMaxThreads);
}

TEST(EngineOptionsTest, AnOverflowingEnvironmentValueFallsBackToHardware) {
  const unsigned hardware = std::thread::hardware_concurrency();
  const int fallback = hardware == 0 ? 1 : static_cast<int>(hardware);
  // Beyond `long`: strtol saturates with ERANGE, which must not read as
  // "the largest request" and clamp to kMaxThreads.
  ::setenv("GREENFPGA_THREADS", "99999999999999999999", /*overwrite=*/1);
  EXPECT_EQ(Engine::default_threads(), fallback);
  ::setenv("GREENFPGA_THREADS", "0", 1);
  EXPECT_EQ(Engine::default_threads(), fallback);
  ::setenv("GREENFPGA_THREADS", "4x", 1);
  EXPECT_EQ(Engine::default_threads(), fallback);
  ::unsetenv("GREENFPGA_THREADS");
}

TEST(EngineOptionsTest, ParseThreadsIsStrict) {
  EXPECT_EQ(Engine::parse_threads("1"), 1);
  EXPECT_EQ(Engine::parse_threads("12"), 12);
  EXPECT_EQ(Engine::parse_threads("100000"), Engine::kMaxThreads);  // in range: clamped
  EXPECT_EQ(Engine::parse_threads("99999999999999999999"), std::nullopt);
  EXPECT_EQ(Engine::parse_threads("-99999999999999999999"), std::nullopt);
  EXPECT_EQ(Engine::parse_threads(""), std::nullopt);
  EXPECT_EQ(Engine::parse_threads("0"), std::nullopt);
  EXPECT_EQ(Engine::parse_threads("-3"), std::nullopt);
  EXPECT_EQ(Engine::parse_threads("3 "), std::nullopt);
  EXPECT_EQ(Engine::parse_threads("three"), std::nullopt);
}

TEST(EngineGridProfile, CarbonAwareSchedulingLowersOperationalCarbon) {
  ScenarioSpec flat = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  ScenarioSpec aware = flat;
  aware.grid_profile = GridProfileSpec{.profile = "solar_duck", .policy = "carbon_aware"};

  const Engine engine(EngineOptions{.threads = 1});
  const double flat_op =
      engine.run(flat).points.front().platforms[1].total.operational.canonical();
  const double aware_op =
      engine.run(aware).points.front().platforms[1].total.operational.canonical();
  EXPECT_LT(aware_op, flat_op);

  ScenarioSpec bogus = flat;
  bogus.grid_profile = GridProfileSpec{.profile = "volcanic", .policy = "uniform"};
  EXPECT_THROW((void)engine.run(bogus), std::invalid_argument);
}

TEST(EngineViews, SweepSeriesAndHeatmapMatchLegacyShapes) {
  const ScenarioResult swept = Engine(EngineOptions{.threads = 2}).run(sweep_spec());
  const SweepSeries series = swept.sweep_series();
  EXPECT_EQ(series.parameter, "N_app");
  EXPECT_EQ(series.x.size(), 8u);
  EXPECT_EQ(series.domain, device::Domain::dnn);

  const ScenarioResult gridded = Engine(EngineOptions{.threads = 2}).run(grid_spec(5, 4));
  const Heatmap map = gridded.heatmap();
  EXPECT_EQ(map.x_name, "N_vol [units]");
  EXPECT_EQ(map.y_name, "T_i [years]");
  EXPECT_EQ(map.x.size(), 5u);
  EXPECT_EQ(map.y.size(), 4u);
}

TEST(EngineViews, TestcaseKindsRequireAsicAndFpga) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::timeline, device::Domain::dnn);
  spec.platforms = {PlatformRef{.name = "gpu"}};
  EXPECT_THROW((void)Engine(EngineOptions{.threads = 1}).run(spec),
               std::invalid_argument);
}

// -- four-way platform audit --------------------------------------------------
//
// Every scenario kind either evaluates an arbitrary platform list or
// fails with an error naming the kind AND the unsupported platform
// shape.  One sub-case per kind, all with the same four registry
// platforms.

std::vector<PlatformRef> four_way_platforms() {
  return {PlatformRef{.name = "asic", .chip = std::nullopt},
          PlatformRef{.name = "fpga", .chip = std::nullopt},
          PlatformRef{.name = "gpu", .chip = std::nullopt},
          PlatformRef{.name = "cpu", .chip = std::nullopt}};
}

TEST(EngineFourWay, PointKindsEvaluateAllFourPlatforms) {
  const Engine engine(EngineOptions{.threads = 2});
  for (const ScenarioKind kind :
       {ScenarioKind::compare, ScenarioKind::sweep, ScenarioKind::grid,
        ScenarioKind::montecarlo, ScenarioKind::frontier}) {
    ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
    spec.name = "four-way " + to_string(kind);
    spec.platforms = four_way_platforms();
    if (kind == ScenarioKind::sweep) {
      spec.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 4, 4)};
    } else if (kind == ScenarioKind::grid) {
      spec.axes = {AxisSpec::log(SweepVariable::volume, 1e4, 1e6, 3),
                   AxisSpec::linear(SweepVariable::lifetime_years, 0.5, 2.5, 3)};
    } else if (kind == ScenarioKind::montecarlo) {
      spec.montecarlo.samples = 16;
    } else if (kind == ScenarioKind::frontier) {
      spec.frontier.axes = {
          dse::FrontierAxisSpec::linear(dse::FrontierVariable::app_count, 1, 4, 4),
          dse::FrontierAxisSpec::log(dse::FrontierVariable::volume, 1e4, 1e6, 3)};
    }
    const ScenarioResult result = engine.run(spec);
    ASSERT_EQ(result.platform_names.size(), 4u) << to_string(kind);
    if (kind == ScenarioKind::montecarlo) {
      ASSERT_TRUE(result.uncertainty);
      EXPECT_EQ(result.uncertainty->platform_total.size(), 4u);
      EXPECT_EQ(result.uncertainty->ratio.size(), 3u);
    } else if (kind == ScenarioKind::frontier) {
      ASSERT_TRUE(result.frontier);
      ASSERT_FALSE(result.frontier->cells.empty());
      EXPECT_EQ(result.frontier->cells.front().objective_kg.size(), 4u);
      EXPECT_EQ(result.frontier->win_counts.size(), 4u);
    } else {
      ASSERT_FALSE(result.points.empty());
      EXPECT_EQ(result.points.front().platforms.size(), 4u);
    }
  }
}

TEST(EngineFourWay, TestcaseKindsFailNamingKindAndPlatformList) {
  const Engine engine(EngineOptions{.threads = 1});
  for (const ScenarioKind kind :
       {ScenarioKind::timeline, ScenarioKind::breakeven, ScenarioKind::sensitivity}) {
    ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
    spec.name = "four-way " + to_string(kind);
    spec.platforms = four_way_platforms();
    try {
      (void)engine.run(spec);
      FAIL() << to_string(kind) << " accepted four platforms";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(to_string(kind)), std::string::npos) << what;
      EXPECT_NE(what.find("asic, fpga, gpu, cpu"), std::string::npos) << what;
    }
  }
}

TEST(EngineFourWay, NodeDseFailsNamingItsSingleSubjectShape) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::node_dse, device::Domain::dnn);
  spec.name = "four-way node_dse";
  spec.platforms = four_way_platforms();
  try {
    (void)Engine(EngineOptions{.threads = 1}).run(spec);
    FAIL() << "node_dse accepted four platforms";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("node_dse"), std::string::npos) << what;
    EXPECT_NE(what.find("asic, fpga, gpu, cpu"), std::string::npos) << what;
  }
}

TEST(EngineFourWay, NodeDseRanksAnExplicitSinglePlatform) {
  // A one-platform list names the subject; the registry's gpu works.
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::node_dse, device::Domain::dnn);
  spec.name = "gpu node ranking";
  spec.platforms = {PlatformRef{.name = "gpu", .chip = std::nullopt}};
  const ScenarioResult result = Engine(EngineOptions{.threads = 2}).run(spec);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(result.candidates.front().chip.is_gpu());
}

// -- Monte-Carlo uncertainty determinism --------------------------------------

ScenarioSpec mc_spec(unsigned seed, int samples = 96) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::montecarlo, device::Domain::dnn);
  spec.name = "mc determinism pin";
  spec.montecarlo.samples = samples;
  spec.montecarlo.seed = seed;
  return spec;
}

TEST(MonteCarloDeterminism, BitIdenticalAcrossThreadCounts) {
  // The acceptance contract of the sampler: counter-based per-sample RNG
  // streams + pre-sized slots make results bit-identical for --threads
  // 1 / 2 / 8 (not merely statistically close).
  const ScenarioSpec spec = mc_spec(42);
  const ScenarioResult one = Engine(EngineOptions{.threads = 1}).run(spec);
  const ScenarioResult two = Engine(EngineOptions{.threads = 2}).run(spec);
  const ScenarioResult eight = Engine(EngineOptions{.threads = 8}).run(spec);

  ASSERT_TRUE(one.uncertainty.has_value());
  for (const ScenarioResult* other : {&two, &eight}) {
    ASSERT_TRUE(other->uncertainty.has_value());
    EXPECT_EQ(one.uncertainty->sample_totals_kg, other->uncertainty->sample_totals_kg);
    ASSERT_EQ(one.uncertainty->platform_total.size(),
              other->uncertainty->platform_total.size());
    for (std::size_t p = 0; p < one.uncertainty->platform_total.size(); ++p) {
      EXPECT_EQ(one.uncertainty->platform_total[p].mean,
                other->uncertainty->platform_total[p].mean);
      EXPECT_EQ(one.uncertainty->platform_total[p].stddev,
                other->uncertainty->platform_total[p].stddev);
      EXPECT_EQ(one.uncertainty->platform_total[p].percentile_values,
                other->uncertainty->platform_total[p].percentile_values);
    }
    EXPECT_EQ(one.uncertainty->win_fraction, other->uncertainty->win_fraction);
  }
}

TEST(MonteCarloDeterminism, SameSeedReproducesDifferentSeedDiffers) {
  const Engine engine(EngineOptions{.threads = 2});
  const ScenarioResult first = engine.run(mc_spec(7));
  const ScenarioResult again = engine.run(mc_spec(7));
  EXPECT_EQ(first.uncertainty->sample_totals_kg, again.uncertainty->sample_totals_kg);

  const ScenarioResult reseeded = engine.run(mc_spec(8));
  EXPECT_NE(first.uncertainty->sample_totals_kg, reseeded.uncertainty->sample_totals_kg);
}

TEST(MonteCarloDeterminism, SampleOrderIsIndexNotScheduleOrder) {
  // Slot i depends only on (seed, i): prefix-truncating the run must
  // reproduce the same leading samples even on a racing thread pool.
  const Engine engine(EngineOptions{.threads = 8});
  const ScenarioResult full = engine.run(mc_spec(11, 64));
  const ScenarioResult prefix = engine.run(mc_spec(11, 16));
  for (std::size_t p = 0; p < prefix.uncertainty->sample_totals_kg.size(); ++p) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(prefix.uncertainty->sample_totals_kg[p][i],
                full.uncertainty->sample_totals_kg[p][i]);
    }
  }
}

TEST(MonteCarloUqResult, RatioAndWinFractionAreConsistent) {
  const ScenarioResult result = Engine(EngineOptions{.threads = 1}).run(mc_spec(3));
  const MonteCarloUq& uq = *result.uncertainty;
  ASSERT_EQ(uq.platform_total.size(), 2u);  // default asic + fpga
  ASSERT_EQ(uq.ratio.size(), 1u);
  const std::vector<double> ratios = uq.ratio_samples(1);
  ASSERT_EQ(ratios.size(), static_cast<std::size_t>(uq.samples));
  std::size_t wins = 0;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    EXPECT_EQ(ratios[i],
              uq.sample_totals_kg[1][i] / uq.sample_totals_kg[0][i]);
    if (ratios[i] < 1.0) {
      ++wins;
    }
  }
  EXPECT_EQ(uq.win_fraction.front(),
            static_cast<double>(wins) / static_cast<double>(uq.samples));
  EXPECT_THROW((void)uq.ratio_samples(0), std::out_of_range);
  EXPECT_THROW((void)uq.ratio_samples(2), std::out_of_range);
}

TEST(MonteCarloUqResult, SummariseSamplesValidatesItsInputs) {
  // The shared stats helper is public API: out-of-range percentiles must
  // throw, never index past the sample buffer.
  EXPECT_THROW((void)summarise_samples({}, {50.0}), std::invalid_argument);
  EXPECT_THROW((void)summarise_samples({1.0, 2.0}, {150.0}), std::invalid_argument);
  EXPECT_THROW((void)summarise_samples({1.0, 2.0}, {-1.0}), std::invalid_argument);
  const UqStat stat = summarise_samples({1.0, 2.0, 3.0}, {0.0, 50.0, 100.0});
  EXPECT_EQ(stat.percentile_values, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(stat.mean, 2.0);
}

TEST(MonteCarloUqResult, PercentilesAreMonotoneAndBracketTheMedian) {
  const ScenarioResult result = Engine(EngineOptions{.threads = 2}).run(mc_spec(5, 256));
  const MonteCarloUq& uq = *result.uncertainty;
  for (const UqStat& stat : uq.platform_total) {
    ASSERT_EQ(stat.percentile_values.size(), uq.percentiles.size());
    for (std::size_t i = 1; i < stat.percentile_values.size(); ++i) {
      EXPECT_LE(stat.percentile_values[i - 1], stat.percentile_values[i]);
    }
    EXPECT_GT(stat.stddev, 0.0);
  }
}

TEST(MonteCarloUqResult, NoDistributionsCollapsesToThePointEstimate) {
  // Empty distribution list: every sample evaluates the unperturbed suite,
  // so the "distribution" is a spike at the deterministic answer.
  ScenarioSpec spec = mc_spec(1, 8);
  spec.montecarlo.distributions.clear();
  const ScenarioResult result = Engine(EngineOptions{.threads = 2}).run(spec);

  const ScenarioSpec point = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  const core::Comparison comparison =
      Engine(EngineOptions{.threads = 1}).run(point).comparison();
  const MonteCarloUq& uq = *result.uncertainty;
  for (const double total : uq.sample_totals_kg[0]) {
    EXPECT_EQ(total, comparison.asic.total.total().canonical());
  }
  for (const double total : uq.sample_totals_kg[1]) {
    EXPECT_EQ(total, comparison.fpga.total.total().canonical());
  }
  // Identical samples must report exactly zero uncertainty (no phantom
  // stddev from the rounded running mean).
  EXPECT_EQ(uq.platform_total[0].stddev, 0.0);
  EXPECT_EQ(uq.platform_total[0].mean, comparison.asic.total.total().canonical());
}

// -- memoisation --------------------------------------------------------------

TEST(EmbodiedMemoisation, CachedEmbodiedEqualsFreshModel) {
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  const core::LifecycleModel warm(core::paper_suite());
  // Warm the cache, then compare against a fresh (cold) model.
  (void)warm.per_chip_embodied(testcase.fpga);
  const core::CfpBreakdown cached = warm.per_chip_embodied(testcase.fpga);
  const core::LifecycleModel cold(core::paper_suite());
  expect_same_breakdown(cached, cold.per_chip_embodied(testcase.fpga));

  // Copies must not share (or keep) cache state observable as results.
  core::LifecycleModel assigned(core::industry_suite());
  assigned = warm;
  expect_same_breakdown(assigned.per_chip_embodied(testcase.fpga), cached);
}

}  // namespace
}  // namespace greenfpga::scenario
