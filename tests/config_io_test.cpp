/// Tests for JSON configuration loading and serialisation of core types.

#include <gtest/gtest.h>

#include <fstream>

#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "io/json_writer.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::core {
namespace {

using io::Json;
using io::parse_json;
using namespace units::unit;

/// The DOM of a value's canonical writer bytes.
template <class T>
Json written(const T& value) {
  return io::written_json([&value](io::JsonWriter& out) { write_json(out, value); });
}

TEST(ConfigIo, SuiteRoundTripsThroughJson) {
  const ModelSuite original = paper_suite();
  const ModelSuite loaded = suite_from_json(written(original), ModelSuite{});
  EXPECT_DOUBLE_EQ(loaded.design.annual_energy.in(gwh), original.design.annual_energy.in(gwh));
  EXPECT_DOUBLE_EQ(loaded.design.product_team_size, original.design.product_team_size);
  EXPECT_DOUBLE_EQ(loaded.design.fpga_regularity_factor,
                   original.design.fpga_regularity_factor);
  EXPECT_DOUBLE_EQ(loaded.appdev.frontend_time.in(months),
                   original.appdev.frontend_time.in(months));
  EXPECT_EQ(loaded.appdev.accounting, original.appdev.accounting);
  EXPECT_DOUBLE_EQ(loaded.fab.fab_energy_intensity.in(g_per_kwh),
                   original.fab.fab_energy_intensity.in(g_per_kwh));
  EXPECT_EQ(loaded.fab.yield.model, original.fab.yield.model);
  EXPECT_DOUBLE_EQ(loaded.operation.duty_cycle, original.operation.duty_cycle);
  EXPECT_EQ(loaded.package.type, original.package.type);
  EXPECT_DOUBLE_EQ(loaded.eol.recycled_fraction, original.eol.recycled_fraction);
  EXPECT_DOUBLE_EQ(loaded.eol.discard_factor.in(mtco2e_per_ton),
                   original.eol.discard_factor.in(mtco2e_per_ton));
}

TEST(ConfigIo, PartialSuiteKeepsDefaults) {
  const ModelSuite defaults = paper_suite();
  const ModelSuite loaded =
      suite_from_json(parse_json(R"({"operation": {"duty_cycle": 0.9}})"), defaults);
  EXPECT_DOUBLE_EQ(loaded.operation.duty_cycle, 0.9);
  EXPECT_DOUBLE_EQ(loaded.design.product_team_size, defaults.design.product_team_size);
}

TEST(ConfigIo, UnknownKeysFailLoudly) {
  EXPECT_THROW(suite_from_json(parse_json(R"({"desing": {}})")), ConfigError);
  EXPECT_THROW(suite_from_json(parse_json(R"({"design": {"team": 5}})")), ConfigError);
  EXPECT_THROW(chip_from_json(parse_json(
                   R"({"name": "x", "die_area_mm2": 1, "peak_power_w": 1, "areaa": 2})")),
               ConfigError);
}

TEST(ConfigIo, ChipRoundTrip) {
  const device::ChipSpec original = device::industry_fpga2();
  const device::ChipSpec loaded = chip_from_json(written(original));
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.kind, original.kind);
  EXPECT_EQ(loaded.node, original.node);
  EXPECT_DOUBLE_EQ(loaded.die_area.in(mm2), original.die_area.in(mm2));
  EXPECT_DOUBLE_EQ(loaded.peak_power.in(w), original.peak_power.in(w));
  EXPECT_DOUBLE_EQ(loaded.capacity_gates, original.capacity_gates);
}

TEST(ConfigIo, ChipDefaultsCapacityFromSilicon) {
  const device::ChipSpec fpga = chip_from_json(parse_json(
      R"({"name": "f", "kind": "fpga", "node": "10nm", "die_area_mm2": 550,
          "peak_power_w": 220})"));
  EXPECT_DOUBLE_EQ(fpga.capacity_gates, device::industry_fpga2().capacity_gates);
  EXPECT_DOUBLE_EQ(fpga.service_life.in(years), 15.0);
  const device::ChipSpec asic = chip_from_json(parse_json(
      R"({"name": "a", "kind": "asic", "node": "10nm", "die_area_mm2": 550,
          "peak_power_w": 220})"));
  EXPECT_DOUBLE_EQ(asic.capacity_gates,
                   fpga.capacity_gates * device::kFpgaFabricOverhead);
  EXPECT_DOUBLE_EQ(asic.service_life.in(years), 8.0);
}

TEST(ConfigIo, ChipRejectsMissingOrBadFields) {
  EXPECT_THROW(chip_from_json(parse_json(R"({"name": "x"})")), ConfigError);
  EXPECT_THROW(chip_from_json(parse_json(
                   R"({"name": "x", "kind": "tpu", "die_area_mm2": 1, "peak_power_w": 1})")),
               ConfigError);
  EXPECT_THROW(chip_from_json(parse_json(
                   R"({"name": "x", "node": "6nm", "die_area_mm2": 1, "peak_power_w": 1})")),
               ConfigError);
}

TEST(ConfigIo, ApplicationRoundTrip) {
  workload::Application original = workload::paper_application(device::Domain::imgproc);
  original.lifetime = 1.5 * years;
  original.volume = 3e5;
  original.size_gates = 1e9;
  const workload::Application loaded = application_from_json(written(original));
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.domain, original.domain);
  EXPECT_DOUBLE_EQ(loaded.lifetime.in(years), 1.5);
  EXPECT_DOUBLE_EQ(loaded.volume, 3e5);
  EXPECT_DOUBLE_EQ(loaded.size_gates, 1e9);
}

TEST(ConfigIo, ScheduleRoundTrip) {
  const workload::Schedule original = paper_schedule(device::Domain::dnn);
  const workload::Schedule loaded = schedule_from_json(written(original));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].name, original[i].name);
    EXPECT_DOUBLE_EQ(loaded[i].volume, original[i].volume);
  }
}

TEST(ConfigIo, ScenarioChecksPlatformKinds) {
  // A platform's kind is its chip section's, not its name's: this
  // compare spec's "asic" slot holds an FPGA, so the result has no ASIC
  // platform for `greenfpga compare` to set the FPGA against.
  Json spec = Json::object();
  spec["kind"] = "compare";
  spec["platforms"] = Json::array();
  for (const auto& [name, chip] : {std::pair{"asic", device::industry_fpga1()},
                                   std::pair{"fpga", device::industry_fpga2()}}) {
    Json platform = Json::object();
    platform["name"] = name;
    platform["chip"] = written(chip);
    spec["platforms"].push_back(std::move(platform));
  }
  const scenario::ScenarioResult result =
      scenario::Engine().run(scenario::spec_from_json(spec));
  EXPECT_FALSE(result.platform_index(device::ChipKind::asic));
  EXPECT_EQ(result.platform_index(device::ChipKind::fpga), 0u);
  EXPECT_THROW(result.comparison(), std::logic_error);
}

TEST(ConfigIo, ScenarioLoadsFromFileWithComments) {
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::compare);
  spec.name = "file test";
  spec.platforms = {{.name = "asic", .chip = testcase.asic},
                    {.name = "fpga", .chip = testcase.fpga}};
  const std::string path = ::testing::TempDir() + "/greenfpga_scenario.json";
  std::ofstream(path) << "// scenario config\n" << scenario::spec_to_json(spec).dump();
  const scenario::ScenarioSpec loaded = scenario::load_spec(path);
  EXPECT_EQ(loaded.name, "file test");
  EXPECT_EQ(loaded.schedule.materialise(loaded.domain).size(), 5u);
  ASSERT_EQ(loaded.platforms.size(), 2u);
  EXPECT_EQ(loaded.platforms[0].chip->kind, device::ChipKind::asic);
}

TEST(ConfigIo, BreakdownJsonHasDerivedFields) {
  core::CfpBreakdown b;
  b.design = 1.0 * t_co2e;
  b.operational = 2.0 * t_co2e;
  const Json json = written(b);
  EXPECT_DOUBLE_EQ(json.at("design_kg").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json.at("embodied_kg").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json.at("total_kg").as_number(), 3000.0);
}

TEST(ConfigIo, SuiteEnumsSerializeSymbolically) {
  ModelSuite suite = paper_suite();
  suite.appdev.accounting = AppDevAccounting::per_year;
  suite.fab.yield.model = tech::YieldModel::poisson;
  const Json json = written(suite);
  EXPECT_EQ(json.at("appdev").at("accounting").as_string(), "per_year");
  EXPECT_EQ(json.at("fab").at("yield_model").as_string(), "poisson");
  const ModelSuite loaded = suite_from_json(json);
  EXPECT_EQ(loaded.appdev.accounting, AppDevAccounting::per_year);
  EXPECT_EQ(loaded.fab.yield.model, tech::YieldModel::poisson);
}

TEST(ConfigIo, BadEnumValuesRejected) {
  EXPECT_THROW(
      suite_from_json(parse_json(R"({"appdev": {"accounting": "sometimes"}})")),
      ConfigError);
  EXPECT_THROW(suite_from_json(parse_json(R"({"fab": {"yield_model": "magic"}})")),
               ConfigError);
  EXPECT_THROW(suite_from_json(parse_json(R"({"package": {"type": "wirebond"}})")),
               ConfigError);
}

}  // namespace
}  // namespace greenfpga::core
