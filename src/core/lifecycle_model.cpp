/// \file lifecycle_model.cpp
/// Eqs. 1-3: the ASIC/FPGA/GPU lifecycle roll-ups over a schedule.

#include "core/lifecycle_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "units/units.hpp"

namespace greenfpga::core {

CfpBreakdown& CfpBreakdown::operator+=(const CfpBreakdown& other) {
  design += other.design;
  manufacturing += other.manufacturing;
  packaging += other.packaging;
  eol += other.eol;
  operational += other.operational;
  app_dev += other.app_dev;
  return *this;
}

CfpBreakdown operator*(CfpBreakdown b, double s) {
  b.design *= s;
  b.manufacturing *= s;
  b.packaging *= s;
  b.eol *= s;
  b.operational *= s;
  b.app_dev *= s;
  return b;
}

LifecycleModel::LifecycleModel(ModelSuite suite)
    : suite_(suite),
      design_(suite.design),
      appdev_(suite.appdev),
      fab_(suite.fab),
      operation_(suite.operation),
      package_(suite.package, &fab_),
      eol_(suite.eol) {}

LifecycleModel& LifecycleModel::operator=(const LifecycleModel& other) {
  if (this != &other) {
    embodied_cache_.clear();
    suite_ = other.suite_;
    design_ = DesignModel(suite_.design);
    appdev_ = AppDevModel(suite_.appdev);
    fab_ = act::FabModel(suite_.fab);
    operation_ = act::OperationalModel(suite_.operation);
    // Rebind the package model to THIS object's fab model.
    package_ = pkg::PackageModel(suite_.package, &fab_);
    eol_ = eol::EolModel(suite_.eol);
  }
  return *this;
}

LifecycleModel& LifecycleModel::operator=(LifecycleModel&& other) noexcept {
  // Reconstruction from the suite is cheap; moving has no advantage.
  return *this = other;
}

namespace {

/// Cache key equality: every field that could feed the embodied sub-models.
bool same_chip(const device::ChipSpec& a, const device::ChipSpec& b) {
  return a.kind == b.kind && a.node == b.node &&
         a.die_area.canonical() == b.die_area.canonical() &&
         a.peak_power.canonical() == b.peak_power.canonical() &&
         a.capacity_gates == b.capacity_gates &&
         a.service_life.canonical() == b.service_life.canonical() &&
         a.chiplet_count == b.chiplet_count &&
         a.chiplet_package == b.chiplet_package && a.name == b.name;
}

/// Cache growth bound; past it, lookups miss and results are recomputed.
constexpr std::size_t kEmbodiedCacheLimit = 64;

}  // namespace

CfpBreakdown LifecycleModel::per_chip_embodied(const device::ChipSpec& chip) const {
  chip.validate();
  for (const EmbodiedCacheEntry& entry : embodied_cache_) {
    if (same_chip(entry.chip, chip)) {
      return entry.embodied;
    }
  }
  CfpBreakdown result;
  if (chip.chiplet_count > 1) {
    // Chiplet-constructed devices (e.g. the registry's "chiplet_fpga")
    // route through the ECO-CHIP model: the chip carries its die count and
    // package style, the suite supplies every other package parameter.
    const std::optional<pkg::PackageType> type =
        pkg::parse_package_type(chip.chiplet_package);
    if (!type) {
      throw std::invalid_argument("per_chip_embodied: chip '" + chip.name +
                                  "': unknown chiplet package \"" +
                                  chip.chiplet_package + "\"");
    }
    pkg::PackageParameters parameters = suite_.package;
    parameters.type = *type;
    result = per_chip_embodied_chiplet(chip, chip.chiplet_count, parameters);
  } else {
    const act::ManufacturingBreakdown mfg =
        fab_.manufacture_die(chip.node, chip.die_area);
    const pkg::PackageBreakdown package = package_.package(chip.die_area);
    const units::Mass mass = package_.package_mass(chip.die_area);
    const eol::EolBreakdown end_of_life = eol_.end_of_life(mass);
    result = CfpBreakdown{
        .design = units::CarbonMass{},
        .manufacturing = mfg.total(),
        .packaging = package.total(),
        .eol = end_of_life.total(),
        .operational = units::CarbonMass{},
        .app_dev = units::CarbonMass{},
    };
  }
  if (embodied_cache_.size() < kEmbodiedCacheLimit) {
    embodied_cache_.push_back({chip, result});
  }
  return result;
}

CfpBreakdown LifecycleModel::per_chip_embodied_chiplet(
    const device::ChipSpec& chip, int die_count,
    const pkg::PackageParameters& package) const {
  chip.validate();
  if (die_count < 1) {
    throw std::invalid_argument("per_chip_embodied_chiplet: die count must be >= 1");
  }
  if (package.type == pkg::PackageType::monolithic && die_count > 1) {
    throw std::invalid_argument(
        "per_chip_embodied_chiplet: a monolithic package holds one die");
  }
  // The same total silicon, fabbed as `die_count` equal chiplets: each die
  // is smaller, so the 1/Y scrap charge falls.
  const units::Area chiplet_area = chip.die_area / static_cast<double>(die_count);
  const act::ManufacturingBreakdown per_die = fab_.manufacture_die(chip.node, chiplet_area);
  const units::CarbonMass silicon = per_die.total() * static_cast<double>(die_count);

  const pkg::PackageModel chiplet_package(package, &fab_);
  const pkg::PackageBreakdown assembled =
      chiplet_package.package(chip.die_area, die_count);
  const units::Mass mass = chiplet_package.package_mass(chip.die_area);
  const eol::EolBreakdown end_of_life = eol_.end_of_life(mass);
  return CfpBreakdown{
      .design = units::CarbonMass{},
      .manufacturing = silicon,
      .packaging = assembled.total(),
      .eol = end_of_life.total(),
      .operational = units::CarbonMass{},
      .app_dev = units::CarbonMass{},
  };
}

units::CarbonMass LifecycleModel::scaled_app_dev(units::CarbonMass per_app,
                                                 units::TimeSpan lifetime) const {
  switch (suite_.appdev.accounting) {
    case AppDevAccounting::one_time:
      return per_app;
    case AppDevAccounting::per_year:
      // Literal Eq. (2): C_app-dev is part of C_deploy,i and scales with T_i.
      return per_app * lifetime.in(units::unit::years);
  }
  throw std::logic_error("scaled_app_dev: unknown accounting policy");
}

PlatformCfp LifecycleModel::evaluate_reusable(const device::ChipSpec& chip,
                                              const workload::Schedule& schedule,
                                              ApplicationRows rows) const {
  chip.validate();
  workload::validate(schedule);

  PlatformCfp result;
  result.kind = chip.kind;

  // Fleet sizing: the same physical fleet serves every application, so it
  // must cover the most demanding deployment (volume x N_FPGA chips; one
  // chip per unit for GPUs -- their iso-performance is baked into the
  // derived spec).
  double fleet_chips = 0.0;
  for (const workload::Application& app : schedule) {
    const int n_chips = device::chips_per_unit(chip, app.size_gates);
    fleet_chips = std::max(fleet_chips, app.volume * static_cast<double>(n_chips));
  }
  result.chips_manufactured = fleet_chips;

  // Eq. (3): C_emb = C_des + N_vol * N_FPGA * (C_mfg + C_pkg + C_EOL),
  // paid once for the whole schedule.
  const CfpBreakdown chip_embodied = per_chip_embodied(chip);
  result.total += chip_embodied * fleet_chips;
  result.total.design += design_.design_carbon(chip);

  // Eq. (2): per-application deployment carbon.
  for (const workload::Application& app : schedule) {
    const int n_chips = device::chips_per_unit(chip, app.size_gates);
    const double deployed_chips = app.volume * static_cast<double>(n_chips);

    CfpBreakdown cfp;
    cfp.operational =
        operation_.operational_carbon(chip.peak_power * static_cast<double>(n_chips),
                                      app.lifetime) *
        app.volume;
    const AppDevBreakdown dev = appdev_.per_application(deployed_chips, chip.kind);
    cfp.app_dev = scaled_app_dev(dev.total(), app.lifetime);

    result.total.operational += cfp.operational;
    result.total.app_dev += cfp.app_dev;
    if (rows == ApplicationRows::keep) {
      result.per_application.push_back(
          ApplicationCfp{.application = app.name, .chips_per_unit = n_chips, .cfp = cfp});
    }
  }
  return result;
}

PlatformCfp LifecycleModel::evaluate_fpga(const device::ChipSpec& fpga,
                                          const workload::Schedule& schedule) const {
  if (!fpga.is_fpga()) {
    throw std::invalid_argument("evaluate_fpga: chip '" + fpga.name + "' is not an FPGA");
  }
  return evaluate_reusable(fpga, schedule, ApplicationRows::keep);
}

PlatformCfp LifecycleModel::evaluate_gpu(const device::ChipSpec& gpu,
                                         const workload::Schedule& schedule) const {
  if (!gpu.is_gpu()) {
    throw std::invalid_argument("evaluate_gpu: chip '" + gpu.name + "' is not a GPU");
  }
  return evaluate_reusable(gpu, schedule, ApplicationRows::keep);
}

PlatformCfp LifecycleModel::evaluate_asic(const device::ChipSpec& asic,
                                          const workload::Schedule& schedule,
                                          ApplicationRows rows) const {
  if (asic.is_reusable()) {
    throw std::invalid_argument("evaluate_asic: chip '" + asic.name + "' is not an ASIC");
  }
  asic.validate();
  workload::validate(schedule);

  PlatformCfp result;
  result.kind = device::ChipKind::asic;
  const CfpBreakdown chip_embodied = per_chip_embodied(asic);
  const units::CarbonMass design_per_app = design_.design_carbon(asic);

  // Eq. (1): every application pays design + silicon + deployment.
  for (const workload::Application& app : schedule) {
    CfpBreakdown cfp = chip_embodied * app.volume;
    cfp.design = design_per_app;
    cfp.operational =
        operation_.operational_carbon(asic.peak_power, app.lifetime) * app.volume;
    const AppDevBreakdown dev = appdev_.per_application(app.volume, /*is_fpga=*/false);
    cfp.app_dev = scaled_app_dev(dev.total(), app.lifetime);

    result.chips_manufactured += app.volume;
    result.total += cfp;
    if (rows == ApplicationRows::keep) {
      // N_FPGA = 1 for ASICs (paper footnote 1).
      result.per_application.push_back(
          ApplicationCfp{.application = app.name, .chips_per_unit = 1, .cfp = cfp});
    }
  }
  return result;
}

PlatformCfp LifecycleModel::evaluate(const device::ChipSpec& chip,
                                     const workload::Schedule& schedule,
                                     ApplicationRows rows) const {
  return chip.is_reusable() ? evaluate_reusable(chip, schedule, rows)
                            : evaluate_asic(chip, schedule, rows);
}

}  // namespace greenfpga::core
