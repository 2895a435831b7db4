#ifndef GREENFPGA_CORE_LIFECYCLE_MODEL_HPP
#define GREENFPGA_CORE_LIFECYCLE_MODEL_HPP

/// \file lifecycle_model.hpp
/// The GreenFPGA total-CFP models (paper §3.1-§3.3, Eqs. 1-3).
///
/// This is the library's primary API.  A `LifecycleModel` bundles all
/// sub-models (design, fab, package, EOL, operation, app-dev) behind two
/// entry points:
///
///   * `evaluate_asic`:  Eq. (1) -- every application re-designs and
///     re-manufactures silicon:
///         C_ASIC = sum_i ( C_emb,i + T_i * C_deploy,i )
///   * `evaluate_fpga`:  Eq. (2) -- one reconfigurable fleet serves all
///     applications; embodied carbon is paid once:
///         C_FPGA = C_emb + sum_i ( T_i * C_deploy,i )
///
/// with the embodied roll-up Eq. (3):
///         C_emb = C_des + N_vol * N_FPGA * (C_mfg + C_package + C_EOL)
///
/// Results come back as a `CfpBreakdown` keeping each lifecycle component
/// separate, which is what the paper's component-stack figures (7, 10, 11)
/// plot.

#include <vector>

#include "act/fab_model.hpp"
#include "act/operational_model.hpp"
#include "core/appdev_model.hpp"
#include "core/design_model.hpp"
#include "device/chip_spec.hpp"
#include "device/iso_performance.hpp"
#include "eol/eol_model.hpp"
#include "package/package_model.hpp"
#include "units/quantity.hpp"
#include "workload/application.hpp"

namespace greenfpga::core {

/// Full parameterisation of a GreenFPGA run: one block per sub-model.
struct ModelSuite {
  DesignParameters design;
  AppDevParameters appdev;
  act::FabParameters fab;
  act::OperationalParameters operation;
  pkg::PackageParameters package;
  eol::EolParameters eol;
};

/// Lifecycle CFP decomposed by source.  All values are totals over the
/// evaluated platform and schedule (not per chip).
struct CfpBreakdown {
  units::CarbonMass design;         ///< Eq. (4), per chip design
  units::CarbonMass manufacturing;  ///< ACT fab model, per good die x volume
  units::CarbonMass packaging;      ///< package substrate/assembly x volume
  units::CarbonMass eol;            ///< Eq. (6); may be negative (credit)
  units::CarbonMass operational;    ///< use-phase energy carbon
  units::CarbonMass app_dev;        ///< Eq. (7) carbon

  /// Embodied CFP: everything except use-phase and app-dev.
  [[nodiscard]] units::CarbonMass embodied() const {
    return design + manufacturing + packaging + eol;
  }
  /// Deployment CFP (paper §3.3): operation + application development.
  [[nodiscard]] units::CarbonMass deployment() const { return operational + app_dev; }
  [[nodiscard]] units::CarbonMass total() const { return embodied() + deployment(); }

  CfpBreakdown& operator+=(const CfpBreakdown& other);
  [[nodiscard]] friend CfpBreakdown operator+(CfpBreakdown a, const CfpBreakdown& b) {
    a += b;
    return a;
  }
  /// Uniform scaling (used by sweeps to normalise per-unit).
  friend CfpBreakdown operator*(CfpBreakdown b, double s);
};

/// Per-application attribution of a platform evaluation, for timelines and
/// the per-application figures.
struct ApplicationCfp {
  std::string application;
  int chips_per_unit = 1;  ///< N_FPGA for FPGA platforms, 1 for ASIC
  CfpBreakdown cfp;        ///< carbon attributable to this application
};

/// Whether a platform evaluation builds its `per_application` rows.  The
/// totals and `chips_manufactured` are summed in the same order either
/// way, so they are bit-identical; skipping only saves the rows' heap
/// work where nothing reads them (grid and sweep points by default).
enum class ApplicationRows { keep, skip };

/// Result of evaluating one platform against one schedule.
struct PlatformCfp {
  device::ChipKind kind = device::ChipKind::asic;
  CfpBreakdown total;
  std::vector<ApplicationCfp> per_application;  ///< empty when rows are skipped
  /// Chips manufactured (fleet size for FPGA; sum over apps for ASIC).
  double chips_manufactured = 0.0;
};

/// The GreenFPGA lifecycle evaluator.
class LifecycleModel {
 public:
  explicit LifecycleModel(ModelSuite suite = {});

  // The package model borrows the fab model by pointer, so copies must
  // reconstruct from the suite rather than copy members.
  LifecycleModel(const LifecycleModel& other) : LifecycleModel(other.suite_) {}
  LifecycleModel& operator=(const LifecycleModel& other);
  LifecycleModel(LifecycleModel&& other) noexcept : LifecycleModel(other.suite_) {}
  LifecycleModel& operator=(LifecycleModel&& other) noexcept;
  ~LifecycleModel() = default;

  [[nodiscard]] const ModelSuite& suite() const { return suite_; }
  [[nodiscard]] const DesignModel& design_model() const { return design_; }
  [[nodiscard]] const AppDevModel& appdev_model() const { return appdev_; }
  [[nodiscard]] const act::FabModel& fab_model() const { return fab_; }
  [[nodiscard]] const act::OperationalModel& operational_model() const { return operation_; }
  [[nodiscard]] const pkg::PackageModel& package_model() const { return package_; }
  [[nodiscard]] const eol::EolModel& eol_model() const { return eol_; }

  /// Per-chip embodied components WITHOUT design CFP: manufacturing,
  /// packaging and end-of-life for one manufactured chip (the
  /// N_vol-multiplied bracket of Eq. 3).
  ///
  /// The result is schedule-independent, so it is memoised per chip: a
  /// grid/sweep evaluating the same devices at thousands of scenario
  /// points computes the fab/package/EOL sub-models once per device.  The
  /// cache makes this method (and the evaluate entry points using it)
  /// non-reentrant: do not share one model instance across threads --
  /// `scenario::Engine` gives each worker its own copy.
  [[nodiscard]] CfpBreakdown per_chip_embodied(const device::ChipSpec& chip) const;

  /// ECO-CHIP-style chiplet construction of the same device: the chip's
  /// total silicon split into `die_count` equal chiplets assembled in an
  /// advanced package (`package.type` selects interposer/EMIB/RDL/3D).
  /// Smaller dies yield better (cutting the 1/Y scrap charge) at the cost
  /// of interposer silicon and bonding -- the ECO-CHIP tradeoff, applied
  /// here to large FPGA dies.  Throws std::invalid_argument for
  /// die_count < 1 or a monolithic package with die_count > 1.
  [[nodiscard]] CfpBreakdown per_chip_embodied_chiplet(
      const device::ChipSpec& chip, int die_count,
      const pkg::PackageParameters& package) const;

  /// Eq. (2): one FPGA design serves the whole schedule; the fleet is sized
  /// for the most demanding application and reconfigured between them.
  [[nodiscard]] PlatformCfp evaluate_fpga(const device::ChipSpec& fpga,
                                          const workload::Schedule& schedule) const;

  /// GPU platform (extension): Eq. (2)'s reuse shape -- one design, one
  /// fleet -- but applications arrive via software (kernel porting), with
  /// no per-chip configuration and no N_FPGA scale-out.
  [[nodiscard]] PlatformCfp evaluate_gpu(const device::ChipSpec& gpu,
                                         const workload::Schedule& schedule) const;

  /// Eq. (1): each application gets a fresh ASIC design and fresh silicon.
  [[nodiscard]] PlatformCfp evaluate_asic(const device::ChipSpec& asic,
                                          const workload::Schedule& schedule,
                                          ApplicationRows rows = ApplicationRows::keep) const;

  /// Dispatch on `chip.kind`; `rows` says whether to build the
  /// per-application attribution.
  [[nodiscard]] PlatformCfp evaluate(const device::ChipSpec& chip,
                                     const workload::Schedule& schedule,
                                     ApplicationRows rows = ApplicationRows::keep) const;

 private:
  /// Shared Eq. (2) implementation for reusable platforms (FPGA, GPU).
  [[nodiscard]] PlatformCfp evaluate_reusable(const device::ChipSpec& chip,
                                              const workload::Schedule& schedule,
                                              ApplicationRows rows) const;

  /// Applies the app-dev accounting policy (one-time vs literal per-year).
  [[nodiscard]] units::CarbonMass scaled_app_dev(units::CarbonMass per_app,
                                                 units::TimeSpan lifetime) const;

  /// Memoised `per_chip_embodied` results, keyed by the full chip spec.
  /// Bounded (evaluations only ever touch a handful of devices); not
  /// copied with the model, cleared on assignment.
  struct EmbodiedCacheEntry {
    device::ChipSpec chip;
    CfpBreakdown embodied;
  };
  mutable std::vector<EmbodiedCacheEntry> embodied_cache_;

  ModelSuite suite_;
  DesignModel design_;
  AppDevModel appdev_;
  act::FabModel fab_;
  act::OperationalModel operation_;
  pkg::PackageModel package_;
  eol::EolModel eol_;
};

}  // namespace greenfpga::core

#endif  // GREENFPGA_CORE_LIFECYCLE_MODEL_HPP
