/// Tests for the `greenfpga` CLI command layer (stream-captured, no
/// process boundary).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "cli/commands.hpp"
#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "io/json.hpp"
#include "io/json_writer.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"

namespace greenfpga::cli {
namespace {

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(args, out, err);
  return {code, out.str(), err.str()};
}

std::string write_spec_file(const std::string& filename, greenfpga::scenario::ScenarioSpec spec) {
  const std::string path = ::testing::TempDir() + "/" + filename;
  io::write_json_file(path, scenario::spec_to_json(spec));
  return path;
}

/// A compare spec of the crypto testcase with its chips written out.
std::string write_scenario_file() {
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::crypto);
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::compare,
                                           device::Domain::crypto);
  spec.name = "cli test scenario";
  spec.platforms = {{.name = "asic", .chip = testcase.asic},
                    {.name = "fpga", .chip = testcase.fpga}};
  return write_spec_file("greenfpga_cli_scenario.json", spec);
}

std::string write_text_file(const std::string& filename, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + filename;
  std::ofstream(path) << text;
  return path;
}

TEST(Cli, NoArgumentsPrintsUsageToErr) {
  const CliRun result = run_cli({});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
  EXPECT_TRUE(result.out.empty());
}

TEST(Cli, HelpPrintsUsageToOutAndSucceeds) {
  for (const char* flag : {"--help", "-h", "help"}) {
    const CliRun result = run_cli({flag});
    EXPECT_EQ(result.exit_code, 0) << flag;
    EXPECT_NE(result.out.find("usage:"), std::string::npos) << flag;
  }
}

TEST(Cli, UnknownCommandFails) {
  const CliRun result = run_cli({"frobnicate"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, CompareEvaluatesScenarioFile) {
  const CliRun result = run_cli({"compare", write_scenario_file()});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("cli test scenario"), std::string::npos);
  EXPECT_NE(result.out.find("greener platform: FPGA"), std::string::npos);
}

TEST(Cli, CompareWritesJsonReport) {
  // --json writes the canonical result: the `run --format json` bytes.
  const std::string spec_path = write_scenario_file();
  const std::string report_path = ::testing::TempDir() + "/greenfpga_cli_report.json";
  const CliRun result = run_cli({"compare", spec_path, "--json", report_path});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  std::ifstream file(report_path);
  const std::string written((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  const CliRun run = run_cli({"--format", "json", "run", spec_path});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(written, run.out);
  const scenario::ScenarioResult report =
      scenario::result_from_json(io::parse_json(written));
  EXPECT_EQ(report.comparison().verdict(), core::Verdict::fpga_lower);
}

TEST(Cli, DumpConfigThenComparePrintsTheDocumentedBlock) {
  // The expected-output block of `compare` in docs/CLI.md.
  const CliRun dump = run_cli({"dump-config"});
  ASSERT_EQ(dump.exit_code, 0) << dump.err;
  const CliRun result =
      run_cli({"compare", write_text_file("greenfpga_cli_dump.json", dump.out)});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_EQ(result.out, R"(== example scenario (edit me) ==
+--------------------+---------+---------+
| component [t CO2e] |    ASIC |    FPGA |
+--------------------+---------+---------+
| design             |  3686.4 |  737.28 |
| manufacturing      |   10847 |   12406 |
| packaging          |    2250 |    1350 |
| end-of-life        | -157.63 | -97.003 |
| operational        |  1331.5 |  3994.6 |
| app-dev            |       0 |  59.983 |
+--------------------+---------+---------+
| embodied (EC)      |   16626 |   14396 |
| deployment         |  1331.5 |  4054.5 |
| total              |   17957 |   18451 |
+--------------------+---------+---------+
FPGA:ASIC ratio 1.027 -> greener platform: ASIC

)");
}

TEST(Cli, CompareRefusesOtherKindsPointingToRun) {
  auto sweep = scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep,
                                            device::Domain::dnn);
  sweep.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 3, 3)};
  const std::string path = write_spec_file("greenfpga_cli_compare_sweep.json", sweep);
  const CliRun result = run_cli({"compare", path});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("'" + path + "' has kind sweep"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("greenfpga run"), std::string::npos) << result.err;
  EXPECT_TRUE(result.out.empty());
}

TEST(Cli, CompareNeedsAnAsicAndAnFpgaPlatform) {
  // A compare spec `run` evaluates, but with no ASIC for the verdict.
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::compare,
                                           device::Domain::dnn);
  spec.platforms = {{.name = "fpga"}, {.name = "gpu"}};
  const std::string path = write_spec_file("greenfpga_cli_compare_no_asic.json", spec);
  ASSERT_EQ(run_cli({"run", path}).exit_code, 0);
  const CliRun result = run_cli({"compare", path});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.err, "error: spec file '" + path +
                            "': compare needs an ASIC and an FPGA platform\n");
}

TEST(Cli, CompareRejectsTheRetiredScenarioFormat) {
  // The old {name, suite, asic, fpga, schedule} file is not a spec.
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  const auto written = [](const auto& value) {
    return io::written_json([&value](io::JsonWriter& out) { core::write_json(out, value); });
  };
  io::Json old = io::Json::object();
  old["name"] = "old scenario";
  old["asic"] = written(testcase.asic);
  old["fpga"] = written(testcase.fpga);
  old["schedule"] = written(core::paper_schedule(device::Domain::dnn));
  const std::string path = ::testing::TempDir() + "/greenfpga_cli_old_scenario.json";
  io::write_json_file(path, old);
  const CliRun result = run_cli({"compare", path});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("spec file '" + path + "': unknown key \"asic\""),
            std::string::npos)
      << result.err;
}

TEST(Cli, CompareMissingFileIsRuntimeError) {
  const CliRun result = run_cli({"compare", "/nonexistent/scenario.json"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Cli, CompareUsageErrors) {
  EXPECT_EQ(run_cli({"compare"}).exit_code, 2);
  EXPECT_EQ(run_cli({"compare", "file.json", "--bogus"}).exit_code, 2);
}

TEST(Cli, SweepPrintsCrossovers) {
  const CliRun result = run_cli({"sweep", "dnn", "apps"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("N_app"), std::string::npos);
  EXPECT_NE(result.out.find("crossovers: A2F"), std::string::npos);
}

TEST(Cli, SweepValidatesArguments) {
  EXPECT_EQ(run_cli({"sweep", "dnn"}).exit_code, 2);
  EXPECT_EQ(run_cli({"sweep", "gpu", "apps"}).exit_code, 2);
  EXPECT_EQ(run_cli({"sweep", "dnn", "bogus"}).exit_code, 2);
}

TEST(Cli, SweepAllDomainsAllVariables) {
  for (const char* domain : {"dnn", "imgproc", "crypto"}) {
    for (const char* variable : {"apps", "lifetime", "volume"}) {
      const CliRun result = run_cli({"sweep", domain, variable});
      EXPECT_EQ(result.exit_code, 0) << domain << " " << variable;
      EXPECT_NE(result.out.find("crossovers:"), std::string::npos);
    }
  }
}

TEST(Cli, IndustryListsAllFourDevices) {
  const CliRun result = run_cli({"industry"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("IndustryFPGA1"), std::string::npos);
  EXPECT_NE(result.out.find("IndustryFPGA2"), std::string::npos);
  EXPECT_NE(result.out.find("IndustryASIC1"), std::string::npos);
  EXPECT_NE(result.out.find("IndustryASIC2"), std::string::npos);
}

TEST(Cli, NodesRanksFabricationNodes) {
  const CliRun result = run_cli({"nodes", "dnn"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("node ranking"), std::string::npos);
  EXPECT_NE(result.out.find("3 nm"), std::string::npos);
  EXPECT_EQ(run_cli({"nodes"}).exit_code, 2);
  EXPECT_EQ(run_cli({"nodes", "gpu"}).exit_code, 2);
}

TEST(Cli, DumpConfigIsValidScenarioJson) {
  const CliRun result = run_cli({"dump-config"});
  EXPECT_EQ(result.exit_code, 0);
  // The dump is a compare spec in its canonical bytes, chips written out.
  const scenario::ScenarioSpec spec = scenario::spec_from_json(io::parse_json(result.out));
  EXPECT_EQ(spec.kind, scenario::ScenarioKind::compare);
  EXPECT_EQ(spec.schedule.materialise(spec.domain).size(), 5u);
  ASSERT_EQ(spec.platforms.size(), 2u);
  ASSERT_TRUE(spec.platforms[0].chip && spec.platforms[1].chip);
  EXPECT_EQ(spec.platforms[0].chip->kind, device::ChipKind::asic);
  EXPECT_TRUE(spec.platforms[1].chip->is_fpga());
  EXPECT_EQ(scenario::spec_to_json(spec).dump() + "\n", result.out);
}

TEST(Cli, RunEvaluatesCompareSpec) {
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::compare,
                                           device::Domain::crypto);
  spec.name = "cli run compare";
  spec.platforms = {scenario::PlatformRef{.name = "asic"},
                    scenario::PlatformRef{.name = "fpga"},
                    scenario::PlatformRef{.name = "gpu"}};
  const CliRun result =
      run_cli({"run", write_spec_file("greenfpga_cli_compare_spec.json", spec)});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("cli run compare"), std::string::npos);
  EXPECT_NE(result.out.find("gpu:asic ratio"), std::string::npos);
}

TEST(Cli, RunEvaluatesSweepSpecAndWritesJson) {
  auto spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, device::Domain::dnn);
  spec.name = "cli run sweep";
  spec.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 6, 6)};
  const std::string report_path = ::testing::TempDir() + "/greenfpga_cli_run_report.json";
  const CliRun result =
      run_cli({"run", write_spec_file("greenfpga_cli_sweep_spec.json", spec), "--json",
               report_path});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("crossovers:"), std::string::npos);
  const io::Json report = io::parse_json_file(report_path);
  EXPECT_EQ(report.at("points").size(), 6u);
  EXPECT_EQ(report.at("spec").at("name").as_string(), "cli run sweep");
}

TEST(Cli, RunUsageAndRuntimeErrors) {
  EXPECT_EQ(run_cli({"run"}).exit_code, 2);
  EXPECT_EQ(run_cli({"run", "spec.json", "--bogus"}).exit_code, 2);
  EXPECT_EQ(run_cli({"run", "/nonexistent/spec.json"}).exit_code, 1);
}

TEST(Cli, RunSurfacesTheRegistryResolveErrorVerbatim) {
  // An unknown platform name must fail with the PlatformRegistry message,
  // including the full list of registered names, on stderr.
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::compare,
                                           device::Domain::dnn);
  spec.platforms = {scenario::PlatformRef{.name = "asic"},
                    scenario::PlatformRef{.name = "tpu"}};
  const CliRun result =
      run_cli({"run", write_spec_file("greenfpga_cli_unknown_platform.json", spec)});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("PlatformRegistry: unknown platform 'tpu'"),
            std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("(registered: asic, chiplet_fpga, cpu, fpga, gpu)"),
            std::string::npos)
      << result.err;
}

TEST(Cli, FrontierSearchesFourPlatformsAndReportsWinRegions) {
  const std::string report_path = ::testing::TempDir() + "/greenfpga_cli_frontier.json";
  const CliRun result = run_cli({"frontier", "dnn", "--json", report_path});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  // The default search is four-way over apps x volume.
  EXPECT_NE(result.out.find("asic vs fpga vs gpu vs cpu"), std::string::npos);
  EXPECT_NE(result.out.find("win fraction"), std::string::npos);
  const io::Json report = io::parse_json_file(report_path);
  EXPECT_EQ(report.at("platforms").size(), 4u);
  EXPECT_EQ(report.at("frontier").at("cells").size(), 100u);  // 10 x 10 grid
  EXPECT_FALSE(report.at("frontier").at("boundaries").as_array().empty());
}

TEST(Cli, FrontierFlagsAreValidated) {
  EXPECT_EQ(run_cli({"frontier"}).exit_code, 2);
  EXPECT_EQ(run_cli({"frontier", "quantum"}).exit_code, 2);
  EXPECT_EQ(run_cli({"frontier", "dnn", "--platforms", "asic"}).exit_code, 2);
  EXPECT_EQ(run_cli({"frontier", "dnn", "--platforms", "asic,tpu"}).exit_code, 1);
  EXPECT_EQ(run_cli({"frontier", "dnn", "--axes", "bogus"}).exit_code, 2);
  EXPECT_EQ(run_cli({"frontier", "dnn", "--samples", "-1"}).exit_code, 2);
}

TEST(Cli, ThreadsFlagIsAcceptedAnywhereAndValidated) {
  const CliRun result = run_cli({"--threads", "2", "sweep", "dnn", "apps"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("crossovers:"), std::string::npos);
  EXPECT_EQ(run_cli({"sweep", "--threads", "2", "dnn", "apps"}).exit_code, 0);
  EXPECT_EQ(run_cli({"--threads"}).exit_code, 2);
  EXPECT_EQ(run_cli({"--threads", "0", "figures"}).exit_code, 2);
  EXPECT_EQ(run_cli({"--threads", "lots", "figures"}).exit_code, 2);
  EXPECT_EQ(run_cli({"--threads", "4abc", "figures"}).exit_code, 2);
}

TEST(Cli, ThreadCountDoesNotChangeSweepOutput) {
  const CliRun one = run_cli({"--threads", "1", "sweep", "dnn", "volume"});
  const CliRun four = run_cli({"--threads", "4", "sweep", "dnn", "volume"});
  EXPECT_EQ(one.exit_code, 0);
  EXPECT_EQ(one.out, four.out);
}

TEST(Cli, CommandsRejectUnexpectedArguments) {
  EXPECT_EQ(run_cli({"industry", "extra"}).exit_code, 2);
  EXPECT_EQ(run_cli({"figures", "extra"}).exit_code, 2);
  EXPECT_EQ(run_cli({"dump-config", "extra"}).exit_code, 2);
}

scenario::ScenarioSpec small_mc_spec() {
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::montecarlo,
                                           device::Domain::dnn);
  spec.name = "cli run montecarlo";
  spec.montecarlo.samples = 24;
  spec.montecarlo.seed = 5;
  return spec;
}

TEST(Cli, McRunsAndWritesCsvAndJson) {
  const std::string csv_path = ::testing::TempDir() + "/greenfpga_cli_mc.csv";
  const std::string json_path = ::testing::TempDir() + "/greenfpga_cli_mc.json";
  const CliRun result = run_cli({"mc", "dnn", "--samples", "16", "--seed", "3", "--csv",
                                 csv_path, "--json", json_path});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("Monte-Carlo: 16 samples, seed 3"), std::string::npos);
  EXPECT_NE(result.out.find("beats"), std::string::npos);

  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(csv, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, 17u);  // header + 16 samples

  const io::Json report = io::parse_json_file(json_path);
  EXPECT_EQ(report.at("uncertainty").at("samples").as_int(), 16);
  EXPECT_EQ(report.at("uncertainty").at("ratio").size(), 1u);
}

TEST(Cli, McValidatesArguments) {
  EXPECT_EQ(run_cli({"mc"}).exit_code, 2);
  EXPECT_EQ(run_cli({"mc", "quantum"}).exit_code, 2);
  EXPECT_EQ(run_cli({"mc", "dnn", "--bogus"}).exit_code, 2);
  // --samples/--seed share the range-guarded integer read with the JSON
  // path: junk, fractions and out-of-range values are usage errors.
  EXPECT_EQ(run_cli({"mc", "dnn", "--samples", "lots"}).exit_code, 2);
  EXPECT_EQ(run_cli({"mc", "dnn", "--samples", "1.5"}).exit_code, 2);
  EXPECT_EQ(run_cli({"mc", "dnn", "--samples", "0"}).exit_code, 2);
  EXPECT_EQ(run_cli({"mc", "dnn", "--seed", "-1"}).exit_code, 2);
}

TEST(Cli, RunMontecarloSpecIsThreadDeterministic) {
  const std::string path = write_spec_file("greenfpga_cli_mc_spec.json", small_mc_spec());
  const CliRun one = run_cli({"--threads", "1", "run", path});
  const CliRun four = run_cli({"--threads", "4", "run", path});
  EXPECT_EQ(one.exit_code, 0) << one.err;
  EXPECT_EQ(one.out, four.out);
  EXPECT_NE(one.out.find("P(fpga:asic ratio <= x)"), std::string::npos);
}

TEST(Cli, RunCsvExportIsMontecarloOnly) {
  auto sweep = scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep,
                                            device::Domain::dnn);
  sweep.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 4, 4)};
  const std::string csv_path = ::testing::TempDir() + "/greenfpga_cli_no.csv";
  EXPECT_EQ(run_cli({"run", write_spec_file("greenfpga_cli_sweep_csv.json", sweep),
                     "--csv", csv_path})
                .exit_code,
            2);
  const CliRun ok = run_cli({"run", write_spec_file("greenfpga_cli_mc_csv.json",
                                                    small_mc_spec()),
                             "--csv", csv_path});
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("wrote " + csv_path), std::string::npos);
}

TEST(Cli, RunParseErrorsNameThePathAndKey) {
  // A type-mismatched field must fail naming the spec file *and* the
  // offending key, not just "expected number".
  const std::string path = ::testing::TempDir() + "/greenfpga_cli_bad_spec.json";
  io::Json json = scenario::spec_to_json(small_mc_spec());
  json.as_object().at("schedule").as_object()["volume"] = "a few";
  io::write_json_file(path, json);
  const CliRun result = run_cli({"run", path});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find(path), std::string::npos) << result.err;
  EXPECT_NE(result.err.find("schedule.volume"), std::string::npos) << result.err;

  const std::string fleet_path = ::testing::TempDir() + "/greenfpga_cli_bad_fleet.json";
  {
    std::ofstream file(fleet_path);
    file << R"({"kind": "fleet", "fleet": {"horizon_years": "x"}})";
  }
  const CliRun fleet = run_cli({"run", fleet_path});
  EXPECT_EQ(fleet.exit_code, 1);
  EXPECT_NE(fleet.err.find(fleet_path), std::string::npos) << fleet.err;
  EXPECT_NE(fleet.err.find("fleet.horizon_years"), std::string::npos) << fleet.err;

  // String-typed keys and number-array entries name their dotted path too.
  const std::vector<std::pair<std::string, std::string>> rows{
      {R"({"kind": "compare", "domain": 7})", "domain: "},
      {R"({"kind": "frontier", "frontier": {"objective": 5}})", "frontier.objective: "},
      {R"({"kind": "fleet", "fleet": {"regions": [{"name": 3}]}})",
       "fleet.regions.name: "},
      {R"({"kind": "fleet", "fleet": {"regions": [{"profile": 3}]}})",
       "fleet.regions.profile: "},
      {R"({"kind": "fleet", "fleet": {"services": [{"trace": ["x"]}]}})",
       "fleet.services.trace: "},
      // Numeric chip and model-suite fields, and process-node list entries.
      {R"({"kind": "compare", "platforms": ["asic", {"name": "x", "chip":)"
       R"( {"kind": "fpga", "die_area_mm2": "a", "peak_power_w": 1}}]})",
       "chip.die_area_mm2: "},
      {R"({"kind": "compare", "platforms": ["asic", {"name": "x", "chip":)"
       R"( {"kind": "fpga", "die_area_mm2": 100, "peak_power_w": [1]}}]})",
       "chip.peak_power_w: "},
      {R"({"kind": "compare", "suite": {"operation": {"duty_cycle": "x"}}})",
       "suite.operation.duty_cycle: "},
      {R"({"kind": "compare", "suite": {"fab": {"yield_model": 1}}})",
       "suite.fab.yield_model: "},
      {R"({"kind": "frontier", "frontier": {"axes": [{"variable": "node", "nodes": [7]},)"
       R"( {"variable": "volume", "from": 1e4, "to": 1e6, "count": 3}]}})",
       "frontier.axes.nodes: "},
      {R"({"kind": "node_dse", "dse": {"nodes": [7]}})", "dse.nodes: "},
  };
  const std::string row_path = ::testing::TempDir() + "/greenfpga_cli_bad_row.json";
  for (const auto& [text, key] : rows) {
    {
      std::ofstream file(row_path);
      file << text;
    }
    const CliRun row = run_cli({"run", row_path});
    EXPECT_EQ(row.exit_code, 1) << text;
    EXPECT_NE(row.err.find(row_path), std::string::npos) << row.err;
    EXPECT_NE(row.err.find(key), std::string::npos) << text << ": " << row.err;
  }
}

TEST(Cli, KindCommandIsARunOfTheSpecItEchoes) {
  // Each kind command decodes its preset spec with the flags written in,
  // exactly as `run` decodes a file, so running the spec it echoes gives
  // the same bytes.
  const std::vector<std::vector<std::string>> invocations{
      {"sweep", "dnn", "apps"},
      {"sweep", "crypto", "volume"},
      {"nodes", "imgproc"},
      {"mc", "dnn", "--samples", "64", "--seed", "7"},
      {"fleet", "dnn", "--horizon", "4", "--utilization", "0.8", "--samples", "16",
       "--seed", "7"},
      {"fleet", "imgproc", "--platforms", "fpga"},
      {"frontier", "dnn", "--samples", "4"},
      {"frontier", "crypto", "--axes", "lifetime,node", "--objective", "embodied",
       "--platforms", "fpga,chiplet_fpga,cpu"},
  };
  for (const std::vector<std::string>& invocation : invocations) {
    const std::string label = invocation[0] + " " + invocation[1];
    std::vector<std::string> args{"--format", "json"};
    args.insert(args.end(), invocation.begin(), invocation.end());
    const CliRun command = run_cli(args);
    EXPECT_EQ(command.exit_code, 0) << label << ": " << command.err;
    if (command.exit_code != 0) {
      continue;
    }
    const std::string path = ::testing::TempDir() + "/greenfpga_cli_echo.json";
    io::write_json_file(path, io::parse_json(command.out).at("spec"));
    const CliRun run = run_cli({"--format", "json", "run", path});
    ASSERT_EQ(run.exit_code, 0) << label << ": " << run.err;
    EXPECT_EQ(command.out, run.out) << label;
  }
  // What `run` would refuse, the command refuses as a usage error.
  for (const std::vector<std::string>& rejected :
       {std::vector<std::string>{"fleet", "dnn", "--horizon", "inf"},
        std::vector<std::string>{"fleet", "dnn", "--horizon", "0x10"},
        std::vector<std::string>{"frontier", "dnn", "--axes", "apps"}}) {
    const CliRun result = run_cli(rejected);
    EXPECT_EQ(result.exit_code, 2) << rejected[2] << " " << rejected[3];
    EXPECT_NE(result.err.find(rejected[2] + " '" + rejected[3] + "'"), std::string::npos)
        << result.err;
  }
}

TEST(Cli, FormatFlagIsValidatedNamingTheValue) {
  const CliRun result = run_cli({"--format", "xml", "sweep", "dnn", "apps"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--format: unknown format 'xml'"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("text, json, csv, md"), std::string::npos);
  EXPECT_EQ(run_cli({"sweep", "dnn", "apps", "--format"}).exit_code, 2);
}

TEST(Cli, OutputFlagFailuresNameThePath) {
  // A parent that is a regular file is unwritable for any user (tests may
  // run as root, where permission-based probes pass).
  const std::string blocker = ::testing::TempDir() + "/greenfpga_cli_blocker";
  std::ofstream(blocker) << "not a directory";
  const std::string path = blocker + "/out.json";
  const CliRun result = run_cli({"--output", path, "sweep", "dnn", "apps"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--output: cannot write '" + path + "'"),
            std::string::npos)
      << result.err;
  EXPECT_EQ(run_cli({"sweep", "dnn", "apps", "--output"}).exit_code, 2);
}

TEST(Cli, OutputFlagWritesRenderedFile) {
  const std::string path = ::testing::TempDir() + "/greenfpga_cli_fmt/out.json";
  const CliRun result =
      run_cli({"--format", "json", "--output", path, "sweep", "dnn", "apps"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("wrote " + path), std::string::npos);
  const io::Json report = io::parse_json_file(path);
  EXPECT_EQ(report.at("points").size(), 12u);
}

TEST(Cli, FormatJsonIsCanonicalAndThreadInvariant) {
  const std::vector<std::string> args{"--format", "json", "run",
                                      write_spec_file("greenfpga_cli_fmt_mc.json",
                                                      small_mc_spec())};
  const CliRun one = run_cli([&] {
    std::vector<std::string> a{"--threads", "1"};
    a.insert(a.end(), args.begin(), args.end());
    return a;
  }());
  const CliRun eight = run_cli([&] {
    std::vector<std::string> a{"--threads", "8"};
    a.insert(a.end(), args.begin(), args.end());
    return a;
  }());
  EXPECT_EQ(one.exit_code, 0) << one.err;
  EXPECT_EQ(one.out, eight.out);
  // The bytes round-trip through the canonical reader.
  const io::Json parsed = io::parse_json(one.out);
  EXPECT_EQ(parsed.at("spec").at("name").as_string(), "cli run montecarlo");
}

TEST(Cli, FormatCsvAndMarkdownRenderFrames) {
  auto spec = scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep,
                                           device::Domain::dnn);
  spec.name = "cli format sweep";
  spec.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 3, 3)};
  const std::string path = write_spec_file("greenfpga_cli_fmt_sweep.json", spec);
  const CliRun csv = run_cli({"--format", "csv", "run", path});
  EXPECT_EQ(csv.exit_code, 0) << csv.err;
  EXPECT_NE(csv.out.find("N_app,asic [t CO2e],fpga [t CO2e],fpga:asic"),
            std::string::npos)
      << csv.out;
  const CliRun md = run_cli({"--format", "md", "run", path});
  EXPECT_EQ(md.exit_code, 0) << md.err;
  EXPECT_NE(md.out.find("## cli format sweep (sweep, DNN)"), std::string::npos);
  EXPECT_NE(md.out.find("| N_app |"), std::string::npos);
}

TEST(Cli, FormatWorksOnEverySubcommand) {
  for (const char* format : {"text", "json", "csv", "md"}) {
    EXPECT_EQ(run_cli({"--format", format, "sweep", "dnn", "apps"}).exit_code, 0)
        << format;
    EXPECT_EQ(run_cli({"--format", format, "nodes", "crypto"}).exit_code, 0) << format;
    EXPECT_EQ(run_cli({"--format", format, "industry"}).exit_code, 0) << format;
  }
  // dump-config is already JSON; the frame formats are a usage error.
  EXPECT_EQ(run_cli({"--format", "json", "dump-config"}).exit_code, 0);
  EXPECT_EQ(run_cli({"--format", "csv", "dump-config"}).exit_code, 2);
  EXPECT_EQ(run_cli({"--format", "md", "dump-config"}).exit_code, 2);
}

/// Batch inputs in a directory of the caller's own: ctest runs the tests
/// in parallel processes, and a shared directory rewritten by one test
/// while another reads it made both flaky.
std::string write_batch_inputs(const std::string& test_name) {
  const std::string dir = ::testing::TempDir() + "/greenfpga_cli_batch_specs_" + test_name;
  std::filesystem::create_directories(dir);
  auto compare = scenario::ScenarioSpec::make(scenario::ScenarioKind::compare,
                                              device::Domain::crypto);
  compare.name = "batch compare";
  io::write_json_file(dir + "/a_compare.json", scenario::spec_to_json(compare));
  auto sweep =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, device::Domain::dnn);
  sweep.name = "batch sweep";
  sweep.axes = {scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 3, 3)};
  io::write_json_file(dir + "/b_sweep.json", scenario::spec_to_json(sweep));
  io::write_json_file(dir + "/c_mc.json", scenario::spec_to_json(small_mc_spec()));
  // A manifest sitting next to its specs must be skipped by the directory
  // scan (and usable directly as the batch argument).
  io::Json manifest = io::Json::object();
  manifest["name"] = "cli batch";
  io::Json list = io::Json::array();
  list.push_back("a_compare.json");
  list.push_back("b_sweep.json");
  list.push_back("c_mc.json");
  manifest["specs"] = std::move(list);
  io::write_json_file(dir + "/manifest.json", manifest);
  return dir;
}

TEST(Cli, BatchOverDirectoryWritesResultsAndIndex) {
  const std::string dir = write_batch_inputs("directory");
  const std::string out_dir = ::testing::TempDir() + "/greenfpga_cli_batch_out";
  std::filesystem::remove_all(out_dir);
  const CliRun result = run_cli({"--output", out_dir, "batch", dir, "--validate"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("wrote 3 result(s) + index.json to " + out_dir),
            std::string::npos)
      << result.out;
  for (const char* name : {"a_compare.json", "b_sweep.json", "c_mc.json"}) {
    const io::Json written = io::parse_json_file(out_dir + "/" + name);
    EXPECT_TRUE(written.contains("spec")) << name;
  }
  const io::Json index = io::parse_json_file(out_dir + "/index.json");
  EXPECT_EQ(index.at("name").as_string(), "batch");
  EXPECT_EQ(index.at("rows").size(), 3u);
}

TEST(Cli, BatchResultsMatchIndividualRunsAtAnyThreads) {
  const std::string dir = write_batch_inputs("threads");
  const std::string out_dir = ::testing::TempDir() + "/greenfpga_cli_batch_threads";
  std::filesystem::remove_all(out_dir);
  const CliRun batch =
      run_cli({"--threads", "4", "--output", out_dir, "batch", dir + "/manifest.json"});
  EXPECT_EQ(batch.exit_code, 0) << batch.err;
  for (const char* name : {"a_compare", "b_sweep", "c_mc"}) {
    const std::string individual_path =
        ::testing::TempDir() + "/greenfpga_cli_batch_ind_" + name + ".json";
    const CliRun individual = run_cli({"--threads", "1", "run",
                                       dir + "/" + name + ".json", "--json",
                                       individual_path});
    ASSERT_EQ(individual.exit_code, 0) << individual.err;
    std::ifstream a(out_dir + "/" + std::string(name) + ".json");
    std::ifstream b(individual_path);
    const std::string batch_bytes((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
    const std::string individual_bytes((std::istreambuf_iterator<char>(b)),
                                       std::istreambuf_iterator<char>());
    EXPECT_EQ(batch_bytes, individual_bytes) << name;
  }
}

TEST(Cli, BatchValidatesArguments) {
  EXPECT_EQ(run_cli({"batch"}).exit_code, 2);
  EXPECT_EQ(run_cli({"batch", "dir", "--bogus"}).exit_code, 2);
  const CliRun missing = run_cli({"batch", "/nonexistent/manifest.json"});
  EXPECT_EQ(missing.exit_code, 1);
  // An empty directory is a usage error naming the argument.
  const std::string empty_dir = ::testing::TempDir() + "/greenfpga_cli_batch_empty";
  std::filesystem::create_directories(empty_dir);
  const CliRun empty = run_cli({"batch", empty_dir});
  EXPECT_EQ(empty.exit_code, 2);
  EXPECT_NE(empty.err.find("no scenario specs found in '" + empty_dir + "'"),
            std::string::npos)
      << empty.err;
}

TEST(Cli, FiguresPrintsPaperVsMeasured) {
  const CliRun result = run_cli({"figures"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("paper-vs-measured"), std::string::npos);
  EXPECT_NE(result.out.find("Fig. 4 A2F"), std::string::npos);
  EXPECT_NE(result.out.find("Fig. 5 F2A"), std::string::npos);
  EXPECT_NE(result.out.find("Fig. 6 F2A"), std::string::npos);
  EXPECT_NE(result.out.find("ImgProc"), std::string::npos);
}

std::string write_depth_bomb(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream file(path);
  file << std::string(100'000, '[');
  return path;
}

TEST(Cli, RunSurvivesJsonDepthBomb) {
  // 100k-deep '[': a parse error naming the file and position, never a
  // stack-overflow crash.
  const CliRun result = run_cli({"run", write_depth_bomb("greenfpga_bomb_run.json")});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("nesting depth exceeds 256"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("greenfpga_bomb_run.json"), std::string::npos)
      << result.err;
}

TEST(Cli, BatchSurvivesJsonDepthBomb) {
  // Both batch ingestion paths -- directory scan and manifest -- must
  // fail the same controlled way.
  const std::string dir = ::testing::TempDir() + "/greenfpga_bomb_batch";
  std::filesystem::create_directories(dir);
  {
    std::ofstream file(dir + "/bomb.json");
    file << std::string(100'000, '[');
  }
  const CliRun by_dir = run_cli({"batch", dir});
  EXPECT_EQ(by_dir.exit_code, 1);
  EXPECT_NE(by_dir.err.find("nesting depth exceeds 256"), std::string::npos)
      << by_dir.err;

  const std::string manifest = ::testing::TempDir() + "/greenfpga_bomb_manifest.json";
  {
    std::ofstream file(manifest);
    file << R"({"specs": ["greenfpga_bomb_batch/bomb.json"]})";
  }
  const CliRun by_manifest = run_cli({"batch", manifest});
  EXPECT_EQ(by_manifest.exit_code, 1);
  EXPECT_NE(by_manifest.err.find("nesting depth exceeds 256"), std::string::npos)
      << by_manifest.err;
}

TEST(Cli, RunRejectsSmuggledNonFiniteSpecValues) {
  // The non-finite string sentinels belong to *result* re-import only;
  // a spec carrying "nan" in number position must fail like any other
  // type error, not evaluate to a NaN-filled result.
  const std::string path = ::testing::TempDir() + "/greenfpga_nan_spec.json";
  {
    std::ofstream file(path);
    file << R"({"kind": "compare", "schedule": {"volume": "nan"}})";
  }
  const CliRun result = run_cli({"run", path});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("expected number"), std::string::npos) << result.err;
}

TEST(Cli, ServeValidatesItsFlags) {
  // Flag validation only -- never binds a socket (exit code 2 happens
  // before the server is constructed).
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"serve", "--port", "junk"},
        std::vector<std::string>{"serve", "--port", "70000"},
        std::vector<std::string>{"serve", "--cache-capacity", "0"},
        std::vector<std::string>{"serve", "--max-connections", "-1"},
        std::vector<std::string>{"serve", "--nope"}}) {
    const CliRun result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args[1];
    EXPECT_NE(result.err.find("serve:"), std::string::npos) << args[1];
  }
}

TEST(Cli, UsageDocumentsServe) {
  const CliRun result = run_cli({"--help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("greenfpga serve"), std::string::npos);
  EXPECT_NE(result.out.find("/v1/run"), std::string::npos);
}

}  // namespace
}  // namespace greenfpga::cli
