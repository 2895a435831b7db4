/// Tests for device specs, iso-performance mapping (Table 2) and the
/// built-in catalog (Table 3).

#include <gtest/gtest.h>

#include <limits>

#include "device/catalog.hpp"
#include "device/chip_spec.hpp"
#include "device/iso_performance.hpp"
#include "units/units.hpp"

namespace greenfpga::device {
namespace {

using namespace units::unit;

TEST(ChipSpec, ValidateAcceptsCatalogDevices) {
  EXPECT_NO_THROW(industry_asic1().validate());
  EXPECT_NO_THROW(industry_asic2().validate());
  EXPECT_NO_THROW(industry_fpga1().validate());
  EXPECT_NO_THROW(industry_fpga2().validate());
}

TEST(ChipSpec, ValidateNamesOffendingField) {
  ChipSpec chip = industry_asic1();
  chip.die_area = units::Area{};
  try {
    chip.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("die area"), std::string::npos);
  }
}

TEST(ChipSpec, ValidateRejectsEachBadField) {
  ChipSpec chip = industry_fpga1();
  chip.name.clear();
  EXPECT_THROW(chip.validate(), std::invalid_argument);

  chip = industry_fpga1();
  chip.peak_power = units::Power{-1.0};
  EXPECT_THROW(chip.validate(), std::invalid_argument);

  chip = industry_fpga1();
  chip.capacity_gates = 0.0;
  EXPECT_THROW(chip.validate(), std::invalid_argument);

  chip = industry_fpga1();
  chip.service_life = units::TimeSpan{};
  EXPECT_THROW(chip.validate(), std::invalid_argument);
}

TEST(IsoPerformance, Table2RatiosVerbatim) {
  EXPECT_DOUBLE_EQ(domain_ratios(Domain::dnn).area_ratio, 4.0);
  EXPECT_DOUBLE_EQ(domain_ratios(Domain::dnn).power_ratio, 3.0);
  EXPECT_DOUBLE_EQ(domain_ratios(Domain::imgproc).area_ratio, 7.42);
  EXPECT_DOUBLE_EQ(domain_ratios(Domain::imgproc).power_ratio, 1.25);
  EXPECT_DOUBLE_EQ(domain_ratios(Domain::crypto).area_ratio, 1.0);
  EXPECT_DOUBLE_EQ(domain_ratios(Domain::crypto).power_ratio, 1.0);
}

TEST(IsoPerformance, DerivedFpgaScalesAreaAndPower) {
  const DomainTestcase testcase = domain_testcase(Domain::dnn);
  EXPECT_DOUBLE_EQ(testcase.fpga.die_area.in(mm2), 4.0 * testcase.asic.die_area.in(mm2));
  EXPECT_DOUBLE_EQ(testcase.fpga.peak_power.in(w), 3.0 * testcase.asic.peak_power.in(w));
  EXPECT_TRUE(testcase.fpga.is_fpga());
  EXPECT_FALSE(testcase.asic.is_fpga());
}

TEST(IsoPerformance, CryptoPairIsPhysicallyIdentical) {
  const DomainTestcase testcase = domain_testcase(Domain::crypto);
  EXPECT_EQ(testcase.fpga.die_area, testcase.asic.die_area);
  EXPECT_EQ(testcase.fpga.peak_power, testcase.asic.peak_power);
}

TEST(IsoPerformance, DerivedFpgaHasFifteenYearLife) {
  const DomainTestcase testcase = domain_testcase(Domain::imgproc);
  EXPECT_DOUBLE_EQ(testcase.fpga.service_life.in(years), 15.0);
  EXPECT_DOUBLE_EQ(testcase.asic.service_life.in(years), 8.0);
}

TEST(IsoPerformance, FpgasRequiredCeils) {
  EXPECT_EQ(fpgas_required(0.0, 1e6), 1);
  EXPECT_EQ(fpgas_required(1e6, 1e6), 1);
  EXPECT_EQ(fpgas_required(1e6 + 1.0, 1e6), 2);
  EXPECT_EQ(fpgas_required(9.5e6, 1e6), 10);
}

TEST(IsoPerformance, FpgasRequiredValidates) {
  EXPECT_THROW(fpgas_required(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(fpgas_required(-1.0, 1e6), std::invalid_argument);
}

TEST(IsoPerformance, FpgasRequiredRejectsCountsPastIntMax) {
  // The count is checked before the double-to-int cast (out of range, that
  // cast is undefined behaviour): INT_MAX itself is fine, one more is not.
  EXPECT_EQ(fpgas_required(2147483647.0, 1.0), 2147483647);
  EXPECT_EQ(fpgas_required(4e18, 1.96875e9), 2031746032);
  for (const double gates : {2147483648.0, 1e300, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(fpgas_required(gates, 1.0), std::invalid_argument) << gates;
  }
  try {
    (void)fpgas_required(1e300, 1e6);
    ADD_FAILURE() << "1e300 gates accepted";
  } catch (const std::invalid_argument& error) {
    // Names the application size, the limit and the chip capacity.
    EXPECT_STREQ(error.what(),
                 "fpgas_required: an application of 1e+300 gates needs more than "
                 "2147483647 FPGAs of 1e+06 gates");
  }
}

TEST(IsoPerformance, ChipsPerUnitIsOneForAsic) {
  // Paper footnote: N_FPGA = 1 for ASICs regardless of application size.
  const ChipSpec asic = industry_asic1();
  EXPECT_EQ(chips_per_unit(asic, 1e12), 1);
}

TEST(IsoPerformance, ChipsPerUnitUsesFpgaCapacity) {
  const ChipSpec fpga = industry_fpga1();
  EXPECT_EQ(chips_per_unit(fpga, 0.0), 1);
  EXPECT_EQ(chips_per_unit(fpga, fpga.capacity_gates * 2.5), 3);
}

TEST(Catalog, Table3SpecsVerbatim) {
  const ChipSpec asic1 = industry_asic1();
  EXPECT_DOUBLE_EQ(asic1.die_area.in(mm2), 340.0);
  EXPECT_DOUBLE_EQ(asic1.peak_power.in(w), 70.0);
  EXPECT_EQ(asic1.node, tech::ProcessNode::n12);

  const ChipSpec asic2 = industry_asic2();
  EXPECT_DOUBLE_EQ(asic2.die_area.in(mm2), 600.0);
  EXPECT_DOUBLE_EQ(asic2.peak_power.in(w), 192.0);
  EXPECT_EQ(asic2.node, tech::ProcessNode::n7);

  const ChipSpec fpga1 = industry_fpga1();
  EXPECT_DOUBLE_EQ(fpga1.die_area.in(mm2), 380.0);
  EXPECT_DOUBLE_EQ(fpga1.peak_power.in(w), 160.0);
  EXPECT_EQ(fpga1.node, tech::ProcessNode::n14);

  const ChipSpec fpga2 = industry_fpga2();
  EXPECT_DOUBLE_EQ(fpga2.die_area.in(mm2), 550.0);
  EXPECT_DOUBLE_EQ(fpga2.peak_power.in(w), 220.0);
  EXPECT_EQ(fpga2.node, tech::ProcessNode::n10);
}

TEST(Catalog, FpgaCapacityReflectsFabricOverhead) {
  const ChipSpec fpga = industry_fpga2();
  const double silicon_gates = tech::node_info(fpga.node).gates_in_area(fpga.die_area);
  EXPECT_DOUBLE_EQ(fpga.capacity_gates, silicon_gates / kFpgaFabricOverhead);
  const ChipSpec asic = industry_asic2();
  const double asic_gates = tech::node_info(asic.node).gates_in_area(asic.die_area);
  EXPECT_DOUBLE_EQ(asic.capacity_gates, asic_gates);
}

TEST(Catalog, AllDomainsEnumerated) {
  EXPECT_EQ(all_domains().size(), 3u);
  for (const Domain domain : all_domains()) {
    const DomainTestcase testcase = domain_testcase(domain);
    EXPECT_EQ(testcase.domain, domain);
    EXPECT_NO_THROW(testcase.asic.validate());
    EXPECT_NO_THROW(testcase.fpga.validate());
    EXPECT_EQ(testcase.asic.node, tech::ProcessNode::n10) << "Table 2 is a 10 nm study";
    EXPECT_EQ(testcase.fpga.node, tech::ProcessNode::n10);
  }
}

TEST(Catalog, NamesAreDistinct) {
  EXPECT_NE(domain_testcase(Domain::dnn).fpga.name, domain_testcase(Domain::dnn).asic.name);
  EXPECT_NE(industry_fpga1().name, industry_fpga2().name);
}

TEST(Enums, ToStringCoverage) {
  EXPECT_EQ(to_string(ChipKind::asic), "ASIC");
  EXPECT_EQ(to_string(ChipKind::fpga), "FPGA");
  EXPECT_EQ(to_string(Domain::dnn), "DNN");
  EXPECT_EQ(to_string(Domain::imgproc), "ImgProc");
  EXPECT_EQ(to_string(Domain::crypto), "Crypto");
}

}  // namespace
}  // namespace greenfpga::device
