/// \file application.cpp
/// Application/schedule validation, homogeneous schedules, paper prototypes.

#include "workload/application.hpp"

#include <stdexcept>

#include "io/json.hpp"
#include "units/units.hpp"

namespace greenfpga::workload {

void Application::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("Application: name must not be empty");
  }
  if (lifetime.canonical() <= 0.0) {
    throw std::invalid_argument("Application '" + name + "': lifetime must be positive");
  }
  if (volume <= 0.0) {
    throw std::invalid_argument("Application '" + name + "': volume must be positive");
  }
  if (size_gates < 0.0) {
    throw std::invalid_argument("Application '" + name + "': size must be non-negative");
  }
}

void check_app_count_axis(const std::vector<double>& values, const std::string& context) {
  for (const double value : values) {
    if (!(value >= 0.5 && value < kMaxAppCount + 0.5)) {
      throw std::invalid_argument(context + "axis app_count value " + io::format_number(value) +
                                  " rounds outside [1, " + std::to_string(kMaxAppCount) +
                                  "] applications");
    }
  }
}

units::TimeSpan total_lifetime(const Schedule& schedule) {
  units::TimeSpan total{};
  for (const Application& app : schedule) {
    total += app.lifetime;
  }
  return total;
}

Schedule homogeneous_schedule(int count, const Application& prototype) {
  if (count < 0) {
    throw std::invalid_argument("homogeneous_schedule: negative count");
  }
  prototype.validate();
  Schedule schedule;
  schedule.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Application app = prototype;
    app.name = prototype.name + "-" + std::to_string(i + 1);
    schedule.push_back(std::move(app));
  }
  return schedule;
}

Application paper_application(device::Domain domain) {
  Application app;
  app.name = to_string(domain) + "-app";
  app.domain = domain;
  app.lifetime = 2.0 * units::unit::years;
  app.volume = 1e6;
  app.size_gates = 0.0;  // sized to the device: single-chip deployments
  return app;
}

void validate(const Schedule& schedule) {
  if (schedule.empty()) {
    throw std::invalid_argument("Schedule: must contain at least one application");
  }
  for (const Application& app : schedule) {
    app.validate();
  }
}

}  // namespace greenfpga::workload
