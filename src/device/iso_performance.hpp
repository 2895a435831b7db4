#ifndef GREENFPGA_DEVICE_ISO_PERFORMANCE_HPP
#define GREENFPGA_DEVICE_ISO_PERFORMANCE_HPP

/// \file iso_performance.hpp
/// Iso-performance FPGA/ASIC mapping (paper Table 2 and the `N_FPGA` rule).
///
/// The paper compares platforms at equal delivered performance.  For each
/// application domain, [12] (T. Tan, "System level tradeoffs between ASIC
/// and FPGA accelerators") measured how much larger and more power-hungry
/// an FPGA implementation is than an ASIC at the same throughput; those
/// area/power ratios are Table 2 and are reproduced here verbatim.
///
/// When a single ASIC outperforms any single FPGA (reticle-limit designs),
/// iso-performance needs several FPGAs:
///     N_FPGA = ceil( application_size / FPGA_capacity )        (paper §3.2)
/// with both sizes in equivalent logic gates.  For an ASIC, N_FPGA = 1 so
/// the same embodied-CFP expression (Eq. 3) serves both platforms.

#include "device/chip_spec.hpp"
#include "units/quantity.hpp"

namespace greenfpga::device {

/// FPGA-to-ASIC resource ratios at iso-performance.
struct IsoPerformanceRatios {
  double area_ratio = 1.0;   ///< FPGA die area / ASIC die area
  double power_ratio = 1.0;  ///< FPGA power / ASIC power
};

/// Table 2 ratios for a domain (DNN 4x/3x, ImgProc 7.42x/1.25x, Crypto 1x/1x).
[[nodiscard]] IsoPerformanceRatios domain_ratios(Domain domain);

/// GPU-to-ASIC ratios at iso-performance (an extension beyond the paper's
/// Table 2; synthetic estimates at published magnitudes -- GPUs trail
/// domain ASICs by ~3-10x in perf/W, worst for bit-level crypto kernels).
[[nodiscard]] IsoPerformanceRatios gpu_domain_ratios(Domain domain);

/// CPU-to-ASIC ratios at iso-performance (the TOCS follow-up's
/// general-purpose baseline: "FPGAs against ASICs, GPUs, and CPUs").
/// Synthetic estimates at published magnitudes -- a general-purpose core
/// cluster trails a domain ASIC by roughly an order of magnitude in both
/// silicon and energy per delivered operation; the area ratio counts the
/// aggregate sockets needed to reach the accelerator's throughput.
[[nodiscard]] IsoPerformanceRatios cpu_domain_ratios(Domain domain);

/// Derive the iso-performance FPGA counterpart of an ASIC: area and power
/// scaled by the domain ratios, same node, FPGA service life (15 years),
/// capacity equal to the ASIC's design size (it must fit the application).
[[nodiscard]] ChipSpec derive_iso_fpga(const ChipSpec& asic, Domain domain);

/// Derive the iso-performance GPU counterpart of an ASIC (same rules with
/// the GPU ratios; GPUs serve 5-8 product years, we use 7).
[[nodiscard]] ChipSpec derive_iso_gpu(const ChipSpec& asic, Domain domain);

/// Derive the iso-performance CPU counterpart of an ASIC (same rules with
/// the CPU ratios; datacenter refresh cycles retire CPUs in ~5 years).
[[nodiscard]] ChipSpec derive_iso_cpu(const ChipSpec& asic, Domain domain);

/// The ECO-CHIP chiplet construction of an FPGA: the same device with its
/// silicon fabbed as `die_count` equal chiplets in an advanced package
/// (EMIB by default -- the cheapest multi-die style end to end).  Identical
/// workload behaviour; only the embodied-carbon path changes, through
/// `LifecycleModel::per_chip_embodied_chiplet`.
[[nodiscard]] ChipSpec derive_chiplet_fpga(const ChipSpec& fpga, int die_count = 4,
                                           const std::string& package = "emib");

/// The `N_FPGA` rule.  Throws std::invalid_argument for non-positive
/// capacity, a negative application size, or a count above INT_MAX; a
/// zero-size application still occupies one device.
[[nodiscard]] int fpgas_required(double application_gates, double fpga_capacity_gates);

/// Chips per deployed accelerator unit: `N_FPGA` for FPGAs, 1 for ASICs.
[[nodiscard]] int chips_per_unit(const ChipSpec& chip, double application_gates);

}  // namespace greenfpga::device

#endif  // GREENFPGA_DEVICE_ISO_PERFORMANCE_HPP
