#ifndef GREENFPGA_DEVICE_CHIP_SPEC_HPP
#define GREENFPGA_DEVICE_CHIP_SPEC_HPP

/// \file chip_spec.hpp
/// Device descriptions shared by every model: what a chip is, physically.

#include <string>
#include <string_view>

#include "tech/node.hpp"
#include "units/quantity.hpp"
#include "units/units.hpp"

namespace greenfpga::device {

/// Accelerator platform kind.
enum class ChipKind {
  asic,  ///< fixed-function accelerator; one design per application
  fpga,  ///< reconfigurable accelerator; one design reused across applications
  gpu,   ///< programmable accelerator; reused across applications via
         ///< software, but no circuit-level reconfigurability (paper §1:
         ///< "GPUs have high power and less flexibility than FPGAs")
  cpu,   ///< general-purpose processor; the software-only baseline of the
         ///< TOCS follow-up ("FPGAs against ASICs, GPUs, and CPUs"):
         ///< maximal reuse, worst iso-performance silicon and power
};

/// "ASIC", "FPGA", "GPU" or "CPU" (static storage).
[[nodiscard]] std::string_view kind_name(ChipKind kind);
[[nodiscard]] std::string to_string(ChipKind kind);

/// Application domains evaluated by the paper (Table 2).
enum class Domain {
  dnn,      ///< deep neural network inference accelerators
  imgproc,  ///< image / video processing pipelines
  crypto,   ///< cryptographic engines
};

[[nodiscard]] std::string to_string(Domain domain);

/// A concrete silicon device: the physical inputs to the lifecycle models.
struct ChipSpec {
  std::string name;
  ChipKind kind = ChipKind::asic;
  tech::ProcessNode node = tech::ProcessNode::n10;
  units::Area die_area;     ///< silicon die area
  units::Power peak_power;  ///< TDP-class peak power
  /// Logic capacity in equivalent gates: the design size for an ASIC, the
  /// reconfigurable fabric capacity for an FPGA (paper's `FPGAcapacity`).
  double capacity_gates = 0.0;
  /// Useful service life of the physical chip (not of any one application).
  /// Paper §2: FPGAs last 12-15 years, ASICs become obsolete in 5-8.
  units::TimeSpan service_life = 15.0 * units::unit::years;
  /// Chiplet construction (ECO-CHIP): the device's total silicon fabbed as
  /// this many equal chiplets.  1 = monolithic (the paper default); values
  /// above 1 route embodied carbon through
  /// `LifecycleModel::per_chip_embodied_chiplet`.
  int chiplet_count = 1;
  /// Advanced package style joining the chiplets ("rdl_fanout",
  /// "silicon_interposer", "emib", "three_d"); parsed by
  /// `pkg::parse_package_type` at evaluation time.  Ignored while
  /// `chiplet_count == 1`.
  std::string chiplet_package = "emib";

  [[nodiscard]] bool is_fpga() const { return kind == ChipKind::fpga; }
  [[nodiscard]] bool is_gpu() const { return kind == ChipKind::gpu; }
  [[nodiscard]] bool is_cpu() const { return kind == ChipKind::cpu; }
  /// Platforms whose silicon is reused across applications (Eq. 2 shape).
  [[nodiscard]] bool is_reusable() const { return kind != ChipKind::asic; }

  /// Sanity checks used by model entry points; throws std::invalid_argument
  /// with the offending field named.
  void validate() const;
};

}  // namespace greenfpga::device

#endif  // GREENFPGA_DEVICE_CHIP_SPEC_HPP
