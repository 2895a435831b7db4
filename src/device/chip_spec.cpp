/// \file chip_spec.cpp
/// ChipKind/Domain names and ChipSpec validation.

#include "device/chip_spec.hpp"

#include <stdexcept>

namespace greenfpga::device {

std::string_view kind_name(ChipKind kind) {
  switch (kind) {
    case ChipKind::asic:
      return "ASIC";
    case ChipKind::fpga:
      return "FPGA";
    case ChipKind::gpu:
      return "GPU";
    case ChipKind::cpu:
      return "CPU";
  }
  return "unknown";
}

std::string to_string(ChipKind kind) { return std::string(kind_name(kind)); }

std::string to_string(Domain domain) {
  switch (domain) {
    case Domain::dnn:
      return "DNN";
    case Domain::imgproc:
      return "ImgProc";
    case Domain::crypto:
      return "Crypto";
  }
  return "unknown";
}

void ChipSpec::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("ChipSpec: name must not be empty");
  }
  if (die_area.canonical() <= 0.0) {
    throw std::invalid_argument("ChipSpec '" + name + "': die area must be positive");
  }
  if (peak_power.canonical() <= 0.0) {
    throw std::invalid_argument("ChipSpec '" + name + "': peak power must be positive");
  }
  if (capacity_gates <= 0.0) {
    throw std::invalid_argument("ChipSpec '" + name + "': capacity must be positive");
  }
  if (service_life.canonical() <= 0.0) {
    throw std::invalid_argument("ChipSpec '" + name + "': service life must be positive");
  }
  if (chiplet_count < 1) {
    throw std::invalid_argument("ChipSpec '" + name + "': chiplet count must be >= 1");
  }
  if (chiplet_package.empty()) {
    throw std::invalid_argument("ChipSpec '" + name +
                                "': chiplet package must be non-empty");
  }
}

}  // namespace greenfpga::device
