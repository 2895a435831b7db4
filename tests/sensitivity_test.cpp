/// Tests for the Table 1 sensitivity kind (tornado + Monte Carlo).

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

/// The tornado of a sensitivity-kind spec for `domain` at the paper
/// defaults, over every Table 1 range.
std::vector<TornadoEntry> tornado_for(Domain domain) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sensitivity, domain);
  spec.sensitivity.run_monte_carlo = false;
  return Engine().run(spec).tornado;
}

/// The Monte-Carlo summary of the same spec: `samples` draws from `seed`.
MonteCarloResult monte_carlo_for(Domain domain, int samples, unsigned seed) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sensitivity, domain);
  spec.sensitivity.run_tornado = false;
  spec.sensitivity.samples = samples;
  spec.sensitivity.seed = seed;
  return *Engine().run(spec).monte_carlo;
}

TEST(Table1Ranges, CoversEveryTableRow) {
  const auto ranges = table1_ranges();
  ASSERT_EQ(ranges.size(), 10u);
  for (const ParameterRange& range : ranges) {
    EXPECT_FALSE(range.name.empty());
    EXPECT_LT(range.low, range.high) << range.name;
    EXPECT_TRUE(static_cast<bool>(range.apply)) << range.name;
  }
}

TEST(Table1Ranges, AppliersWriteTheRightField) {
  const auto ranges = table1_ranges();
  core::ModelSuite suite = core::paper_suite();
  for (const ParameterRange& range : ranges) {
    range.apply(suite, range.high);
  }
  EXPECT_DOUBLE_EQ(suite.fab.recycled_material_fraction, 1.0);
  EXPECT_DOUBLE_EQ(suite.eol.recycled_fraction, 1.0);
  EXPECT_DOUBLE_EQ(suite.eol.recycle_credit_factor.in(mtco2e_per_ton), 29.83);
  EXPECT_DOUBLE_EQ(suite.eol.discard_factor.in(mtco2e_per_ton), 2.08);
  EXPECT_DOUBLE_EQ(suite.appdev.frontend_time.in(months), 2.5);
  EXPECT_DOUBLE_EQ(suite.appdev.backend_time.in(months), 1.5);
  EXPECT_DOUBLE_EQ(suite.design.annual_energy.in(gwh), 7.3);
  EXPECT_DOUBLE_EQ(suite.design.intensity.in(g_per_kwh), 700.0);
  EXPECT_DOUBLE_EQ(suite.design.company_employees, 160e3);
  EXPECT_DOUBLE_EQ(suite.design.project_duration.in(years), 3.0);
}

TEST(Tornado, SortedByDescendingSwing) {
  const auto entries = tornado_for(Domain::dnn);
  ASSERT_EQ(entries.size(), 10u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].swing(), entries[i].swing());
  }
}

TEST(Tornado, DesignKnobsMatterForDnn) {
  // The DNN story is design-amortisation driven, so at least one design
  // parameter must rank in the top three.
  const auto entries = tornado_for(Domain::dnn);
  bool design_in_top3 = false;
  for (std::size_t i = 0; i < 3; ++i) {
    if (entries[i].name.find("T_proj") != std::string::npos ||
        entries[i].name.find("E_des") != std::string::npos ||
        entries[i].name.find("C_src_des") != std::string::npos ||
        entries[i].name.find("N_emp") != std::string::npos) {
      design_in_top3 = true;
    }
  }
  EXPECT_TRUE(design_in_top3);
}

TEST(Tornado, RatiosAreFinitePositive) {
  const auto entries = tornado_for(Domain::crypto);
  for (const TornadoEntry& entry : entries) {
    EXPECT_GT(entry.ratio_at_low, 0.0) << entry.name;
    EXPECT_GT(entry.ratio_at_high, 0.0) << entry.name;
    EXPECT_TRUE(std::isfinite(entry.ratio_at_low)) << entry.name;
  }
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  const auto a = monte_carlo_for(Domain::dnn, 64, 7);
  const auto b = monte_carlo_for(Domain::dnn, 64, 7);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.fpga_win_fraction, b.fpga_win_fraction);
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  const auto a = monte_carlo_for(Domain::dnn, 64, 1);
  const auto b = monte_carlo_for(Domain::dnn, 64, 2);
  EXPECT_NE(a.mean, b.mean);
}

TEST(MonteCarlo, PercentilesOrdered) {
  const auto result = monte_carlo_for(Domain::dnn, 128, 42);
  EXPECT_LE(result.p05, result.p50);
  EXPECT_LE(result.p50, result.p95);
  EXPECT_GT(result.stddev, 0.0);
  EXPECT_EQ(result.samples, 128);
  EXPECT_GE(result.fpga_win_fraction, 0.0);
  EXPECT_LE(result.fpga_win_fraction, 1.0);
}

TEST(MonteCarlo, CryptoWinsRobustly) {
  // Crypto's FPGA advantage should survive nearly all Table 1 samples.
  const auto result = monte_carlo_for(Domain::crypto, 128, 42);
  EXPECT_GT(result.fpga_win_fraction, 0.95);
}

TEST(MonteCarlo, InvalidSampleCountThrows) {
  EXPECT_THROW(monte_carlo_for(Domain::dnn, 0, 42), std::invalid_argument);
}

}  // namespace
}  // namespace greenfpga::scenario
