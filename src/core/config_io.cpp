/// \file config_io.cpp
/// JSON (de)serialisation of suites, chips and schedules; unknown keys fail loudly.

#include "core/config_io.hpp"

#include <functional>
#include <initializer_list>
#include <limits>
#include <type_traits>

#include "units/units.hpp"

namespace greenfpga::core {

void check_known_keys(const io::Json& json, const std::string& context,
                      std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : json.as_object()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw ConfigError("unknown key \"" + key + "\" in " + context);
    }
  }
}

std::int64_t int_field_or(const io::Json& json, std::string_view key,
                          std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
  if (!json.contains(key)) {
    return fallback;
  }
  std::int64_t value = 0;
  try {
    value = json.at(key).as_int();
  } catch (const io::JsonError&) {
    throw ConfigError("\"" + std::string(key) + "\" must be an integer");
  }
  if (value < lo || value > hi) {
    throw ConfigError("\"" + std::string(key) + "\" must be in [" + std::to_string(lo) +
                      ", " + std::to_string(hi) + "], got " + std::to_string(value));
  }
  return value;
}

namespace {

std::string field_path(const std::string& context, std::string_view key) {
  return context.empty() ? std::string(key) : context + "." + std::string(key);
}

/// `read()`, with a JSON type error rethrown naming the field's path.
template <typename Read>
auto read_field(const std::string& context, std::string_view key, Read read) {
  try {
    return read();
  } catch (const io::JsonError& error) {
    throw ConfigError(field_path(context, key) + ": " + error.what());
  }
}

/// An array field, every element read by `element`, with a JSON type
/// error naming the field's path.
template <typename Element>
std::vector<std::decay_t<Element>> array_field(const io::Json& json,
                                               const std::string& context,
                                               std::string_view key,
                                               Element (io::Json::*element)() const) {
  return read_field(context, key, [&] {
    std::vector<std::decay_t<Element>> values;
    for (const io::Json& value : json.at(key).as_array()) {
      values.push_back((value.*element)());
    }
    return values;
  });
}

}  // namespace

double number_field(const io::Json& json, const std::string& context,
                    std::string_view key) {
  return read_field(context, key, [&] { return json.at(key).as_number(); });
}

double number_field_or(const io::Json& json, const std::string& context,
                       std::string_view key, double fallback) {
  return json.contains(key) ? number_field(json, context, key) : fallback;
}

std::vector<double> numbers_field(const io::Json& json, const std::string& context,
                                  std::string_view key) {
  return array_field(json, context, key, &io::Json::as_number);
}

std::vector<std::string> strings_field(const io::Json& json, const std::string& context,
                                       std::string_view key) {
  return array_field(json, context, key, &io::Json::as_string);
}

std::string string_field_or(const io::Json& json, const std::string& context,
                            std::string_view key, std::string_view fallback) {
  return json.contains(key)
             ? read_field(context, key, [&] { return json.at(key).as_string(); })
             : std::string(fallback);
}

std::int64_t int_field_ctx(const io::Json& json, const std::string& context,
                           std::string_view key, std::int64_t fallback, std::int64_t lo,
                           std::int64_t hi) {
  try {
    return int_field_or(json, key, fallback, lo, hi);
  } catch (const ConfigError& error) {
    throw ConfigError(field_path(context, key) + ": " + error.what());
  }
}

namespace {

using io::Json;
using namespace units::unit;

/// Local alias for the shared unknown-key guard.
void check_keys(const Json& json, const std::string& context,
                std::initializer_list<std::string_view> allowed) {
  check_known_keys(json, context, allowed);
}

units::CarbonIntensity intensity_from(const Json& json, const std::string& context,
                                      std::string_view key, units::CarbonIntensity fallback) {
  if (!json.contains(key)) {
    return fallback;
  }
  return number_field(json, context, key) * g_per_kwh;
}

DesignParameters design_from_json(const Json& json, DesignParameters p) {
  check_keys(json, "design parameters",
             {"annual_energy_gwh", "intensity_g_per_kwh", "company_employees",
              "product_team_size", "average_product_gates", "project_duration_years",
              "fpga_regularity_factor"});
  const auto number = [&json](std::string_view key, double fallback) {
    return number_field_or(json, "suite.design", key, fallback);
  };
  p.annual_energy = number("annual_energy_gwh", p.annual_energy.in(gwh)) * gwh;
  p.intensity = intensity_from(json, "suite.design", "intensity_g_per_kwh", p.intensity);
  p.company_employees = number("company_employees", p.company_employees);
  p.product_team_size = number("product_team_size", p.product_team_size);
  p.average_product_gates = number("average_product_gates", p.average_product_gates);
  p.project_duration = number("project_duration_years", p.project_duration.in(years)) * years;
  p.fpga_regularity_factor = number("fpga_regularity_factor", p.fpga_regularity_factor);
  return p;
}

AppDevParameters appdev_from_json(const Json& json, AppDevParameters p) {
  check_keys(json, "appdev parameters",
             {"frontend_months", "backend_months", "config_minutes", "dev_system_power_w",
              "dev_systems", "dev_intensity_g_per_kwh", "accounting",
              "asic_software_dev_months", "gpu_software_dev_months",
              "cpu_software_dev_months"});
  const auto number = [&json](std::string_view key, double fallback) {
    return number_field_or(json, "suite.appdev", key, fallback);
  };
  p.frontend_time = number("frontend_months", p.frontend_time.in(months)) * months;
  p.backend_time = number("backend_months", p.backend_time.in(months)) * months;
  p.config_time = number("config_minutes", p.config_time.in(minutes)) * minutes;
  p.dev_system_power = number("dev_system_power_w", p.dev_system_power.in(w)) * w;
  p.dev_systems = number("dev_systems", p.dev_systems);
  p.dev_intensity =
      intensity_from(json, "suite.appdev", "dev_intensity_g_per_kwh", p.dev_intensity);
  if (json.contains("accounting")) {
    const std::string mode = string_field_or(json, "suite.appdev", "accounting", "");
    if (mode == "one_time") {
      p.accounting = AppDevAccounting::one_time;
    } else if (mode == "per_year") {
      p.accounting = AppDevAccounting::per_year;
    } else {
      throw ConfigError("appdev.accounting must be \"one_time\" or \"per_year\", got \"" +
                        mode + "\"");
    }
  }
  p.asic_software_dev_time =
      number("asic_software_dev_months", p.asic_software_dev_time.in(months)) * months;
  p.gpu_software_dev_time =
      number("gpu_software_dev_months", p.gpu_software_dev_time.in(months)) * months;
  p.cpu_software_dev_time =
      number("cpu_software_dev_months", p.cpu_software_dev_time.in(months)) * months;
  return p;
}

act::FabParameters fab_from_json(const Json& json, act::FabParameters p) {
  check_keys(json, "fab parameters",
             {"energy_intensity_g_per_kwh", "recycled_material_fraction", "yield_model",
              "clustering_alpha", "line_yield", "defect_density_per_cm2"});
  const auto number = [&json](std::string_view key, double fallback) {
    return number_field_or(json, "suite.fab", key, fallback);
  };
  p.fab_energy_intensity =
      intensity_from(json, "suite.fab", "energy_intensity_g_per_kwh", p.fab_energy_intensity);
  p.recycled_material_fraction =
      number("recycled_material_fraction", p.recycled_material_fraction);
  if (json.contains("yield_model")) {
    const std::string model = string_field_or(json, "suite.fab", "yield_model", "");
    if (model == "poisson") {
      p.yield.model = tech::YieldModel::poisson;
    } else if (model == "murphy") {
      p.yield.model = tech::YieldModel::murphy;
    } else if (model == "seeds") {
      p.yield.model = tech::YieldModel::seeds;
    } else if (model == "negative_binomial" || model == "negative-binomial") {
      p.yield.model = tech::YieldModel::negative_binomial;
    } else {
      throw ConfigError("unknown yield model \"" + model + "\"");
    }
  }
  p.yield.clustering_alpha = number("clustering_alpha", p.yield.clustering_alpha);
  p.yield.line_yield = number("line_yield", p.yield.line_yield);
  if (json.contains("defect_density_per_cm2")) {
    p.defect_density_override =
        tech::DefectDensity{number_field(json, "suite.fab", "defect_density_per_cm2") / 100.0};
  }
  return p;
}

act::OperationalParameters operation_from_json(const Json& json,
                                               act::OperationalParameters p) {
  check_keys(json, "operation parameters",
             {"use_intensity_g_per_kwh", "duty_cycle", "pue"});
  const auto number = [&json](std::string_view key, double fallback) {
    return number_field_or(json, "suite.operation", key, fallback);
  };
  p.use_intensity =
      intensity_from(json, "suite.operation", "use_intensity_g_per_kwh", p.use_intensity);
  p.duty_cycle = number("duty_cycle", p.duty_cycle);
  p.power_usage_effectiveness = number("pue", p.power_usage_effectiveness);
  return p;
}

pkg::PackageParameters package_from_json(const Json& json, pkg::PackageParameters p) {
  check_keys(json, "package parameters",
             {"type", "assembly_overhead_kg", "substrate_kg_per_cm2", "footprint_ratio",
              "interposer_node", "interposer_area_ratio", "bonding_per_die_kg"});
  const auto number = [&json](std::string_view key, double fallback) {
    return number_field_or(json, "suite.package", key, fallback);
  };
  if (json.contains("type")) {
    const std::string type = string_field_or(json, "suite.package", "type", "");
    if (type == "monolithic") {
      p.type = pkg::PackageType::monolithic;
    } else if (type == "rdl_fanout") {
      p.type = pkg::PackageType::rdl_fanout;
    } else if (type == "silicon_interposer") {
      p.type = pkg::PackageType::silicon_interposer;
    } else if (type == "emib") {
      p.type = pkg::PackageType::emib;
    } else if (type == "3d") {
      p.type = pkg::PackageType::three_d;
    } else {
      throw ConfigError("unknown package type \"" + type + "\"");
    }
  }
  p.assembly_overhead =
      units::CarbonMass{number("assembly_overhead_kg", p.assembly_overhead.canonical())};
  p.substrate_per_area =
      number("substrate_kg_per_cm2", p.substrate_per_area.in(kg_per_cm2)) * kg_per_cm2;
  p.footprint_ratio = number("footprint_ratio", p.footprint_ratio);
  if (json.contains("interposer_node")) {
    const std::string name = string_field_or(json, "suite.package", "interposer_node", "");
    const auto node = tech::parse_node(name);
    if (!node) {
      throw ConfigError("unknown interposer node \"" + name + "\"");
    }
    p.interposer_node = *node;
  }
  p.interposer_area_ratio = number("interposer_area_ratio", p.interposer_area_ratio);
  p.bonding_per_die =
      units::CarbonMass{number("bonding_per_die_kg", p.bonding_per_die.canonical())};
  return p;
}

eol::EolParameters eol_from_json(const Json& json, eol::EolParameters p) {
  check_keys(json, "eol parameters",
             {"recycled_fraction", "discard_mtco2e_per_ton", "recycle_mtco2e_per_ton"});
  const auto number = [&json](std::string_view key, double fallback) {
    return number_field_or(json, "suite.eol", key, fallback);
  };
  p.recycled_fraction = number("recycled_fraction", p.recycled_fraction);
  p.discard_factor =
      number("discard_mtco2e_per_ton", p.discard_factor.in(mtco2e_per_ton)) * mtco2e_per_ton;
  p.recycle_credit_factor =
      number("recycle_mtco2e_per_ton", p.recycle_credit_factor.in(mtco2e_per_ton)) *
      mtco2e_per_ton;
  return p;
}

}  // namespace

ModelSuite suite_from_json(const Json& json, ModelSuite defaults) {
  check_keys(json, "suite", {"design", "appdev", "fab", "operation", "package", "eol"});
  ModelSuite suite = defaults;
  if (json.contains("design")) suite.design = design_from_json(json.at("design"), suite.design);
  if (json.contains("appdev")) suite.appdev = appdev_from_json(json.at("appdev"), suite.appdev);
  if (json.contains("fab")) suite.fab = fab_from_json(json.at("fab"), suite.fab);
  if (json.contains("operation")) {
    suite.operation = operation_from_json(json.at("operation"), suite.operation);
  }
  if (json.contains("package")) {
    suite.package = package_from_json(json.at("package"), suite.package);
  }
  if (json.contains("eol")) suite.eol = eol_from_json(json.at("eol"), suite.eol);
  return suite;
}

device::ChipSpec chip_from_json(const Json& json) {
  check_keys(json, "chip",
             {"name", "kind", "node", "die_area_mm2", "peak_power_w", "capacity_gates",
              "service_life_years", "chiplet_count", "chiplet_package"});
  device::ChipSpec chip;
  chip.name = string_field_or(json, "chip", "name", "chip");
  const std::string kind = string_field_or(json, "chip", "kind", "asic");
  if (kind == "asic") {
    chip.kind = device::ChipKind::asic;
  } else if (kind == "fpga") {
    chip.kind = device::ChipKind::fpga;
  } else if (kind == "gpu") {
    chip.kind = device::ChipKind::gpu;
  } else if (kind == "cpu") {
    chip.kind = device::ChipKind::cpu;
  } else {
    throw ConfigError("chip.kind must be \"asic\", \"fpga\", \"gpu\" or \"cpu\", got \"" +
                      kind + "\"");
  }
  const std::string node_text = string_field_or(json, "chip", "node", "10nm");
  const auto node = tech::parse_node(node_text);
  if (!node) {
    throw ConfigError("unknown process node \"" + node_text + "\"");
  }
  chip.node = *node;
  if (!json.contains("die_area_mm2") || !json.contains("peak_power_w")) {
    throw ConfigError("chip \"" + chip.name + "\" needs die_area_mm2 and peak_power_w");
  }
  chip.die_area = number_field(json, "chip", "die_area_mm2") * mm2;
  chip.peak_power = number_field(json, "chip", "peak_power_w") * w;
  if (json.contains("capacity_gates")) {
    chip.capacity_gates = number_field(json, "chip", "capacity_gates");
  } else {
    // Default capacity: silicon gates (ASIC) or silicon gates over the
    // fabric overhead (FPGA).
    const double silicon = tech::node_info(chip.node).gates_in_area(chip.die_area);
    chip.capacity_gates =
        chip.is_fpga() ? silicon / device::kFpgaFabricOverhead : silicon;
  }
  chip.service_life =
      number_field_or(json, "chip", "service_life_years",
                      chip.is_fpga() ? 15.0
                                     : (chip.is_gpu() ? 7.0 : (chip.is_cpu() ? 5.0 : 8.0))) *
      years;
  chip.chiplet_count =
      static_cast<int>(int_field_or(json, "chiplet_count", chip.chiplet_count, 1, 64));
  chip.chiplet_package =
      string_field_or(json, "chip", "chiplet_package", chip.chiplet_package);
  chip.validate();
  return chip;
}

workload::Application application_from_json(const Json& json) {
  check_keys(json, "application",
             {"name", "domain", "lifetime_years", "volume", "size_gates"});
  workload::Application app;
  app.name = string_field_or(json, "application", "name", "app");
  const std::string domain = string_field_or(json, "application", "domain", "DNN");
  if (domain == "DNN" || domain == "dnn") {
    app.domain = device::Domain::dnn;
  } else if (domain == "ImgProc" || domain == "imgproc") {
    app.domain = device::Domain::imgproc;
  } else if (domain == "Crypto" || domain == "crypto") {
    app.domain = device::Domain::crypto;
  } else {
    throw ConfigError("unknown domain \"" + domain + "\"");
  }
  app.lifetime = number_field_or(json, "application", "lifetime_years", 2.0) * years;
  app.volume = number_field_or(json, "application", "volume", 1e6);
  app.size_gates = number_field_or(json, "application", "size_gates", 0.0);
  app.validate();
  return app;
}

workload::Schedule schedule_from_json(const Json& json) {
  workload::Schedule schedule;
  for (const Json& element : json.as_array()) {
    schedule.push_back(application_from_json(element));
  }
  workload::validate(schedule);
  return schedule;
}

ScenarioConfig scenario_from_json(const Json& json) {
  check_keys(json, "scenario", {"name", "suite", "asic", "fpga", "schedule"});
  ScenarioConfig config;
  config.name = string_field_or(json, "scenario", "name", "scenario");
  config.suite = json.contains("suite") ? suite_from_json(json.at("suite"), paper_suite())
                                        : paper_suite();
  if (!json.contains("asic") || !json.contains("fpga") || !json.contains("schedule")) {
    throw ConfigError("scenario needs asic, fpga and schedule sections");
  }
  config.asic = chip_from_json(json.at("asic"));
  config.fpga = chip_from_json(json.at("fpga"));
  if (config.asic.kind != device::ChipKind::asic || !config.fpga.is_fpga()) {
    throw ConfigError("scenario.asic must be an ASIC and scenario.fpga an FPGA");
  }
  config.schedule = schedule_from_json(json.at("schedule"));
  return config;
}

ScenarioConfig load_scenario(const std::string& path) {
  return scenario_from_json(io::parse_json_file(path));
}

// -- writers -------------------------------------------------------------------

Json to_json(const ModelSuite& suite) {
  return io::written_json([&](io::JsonWriter& out) { write_json(out, suite); });
}

void write_json(io::JsonWriter& out, const ModelSuite& suite) {
  out.begin_object();
  out.key("appdev");
  out.begin_object();
  out.string("accounting",
             suite.appdev.accounting == AppDevAccounting::one_time ? "one_time" : "per_year");
  out.number("asic_software_dev_months", suite.appdev.asic_software_dev_time.in(months));
  out.number("backend_months", suite.appdev.backend_time.in(months));
  out.number("config_minutes", suite.appdev.config_time.in(minutes));
  out.number("cpu_software_dev_months", suite.appdev.cpu_software_dev_time.in(months));
  out.number("dev_intensity_g_per_kwh", suite.appdev.dev_intensity.in(g_per_kwh));
  out.number("dev_system_power_w", suite.appdev.dev_system_power.in(w));
  out.number("dev_systems", suite.appdev.dev_systems);
  out.number("frontend_months", suite.appdev.frontend_time.in(months));
  out.number("gpu_software_dev_months", suite.appdev.gpu_software_dev_time.in(months));
  out.end_object();

  out.key("design");
  out.begin_object();
  out.number("annual_energy_gwh", suite.design.annual_energy.in(gwh));
  out.number("average_product_gates", suite.design.average_product_gates);
  out.number("company_employees", suite.design.company_employees);
  out.number("fpga_regularity_factor", suite.design.fpga_regularity_factor);
  out.number("intensity_g_per_kwh", suite.design.intensity.in(g_per_kwh));
  out.number("product_team_size", suite.design.product_team_size);
  out.number("project_duration_years", suite.design.project_duration.in(years));
  out.end_object();

  out.key("eol");
  out.begin_object();
  out.number("discard_mtco2e_per_ton", suite.eol.discard_factor.in(mtco2e_per_ton));
  out.number("recycle_mtco2e_per_ton", suite.eol.recycle_credit_factor.in(mtco2e_per_ton));
  out.number("recycled_fraction", suite.eol.recycled_fraction);
  out.end_object();

  out.key("fab");
  out.begin_object();
  out.number("clustering_alpha", suite.fab.yield.clustering_alpha);
  out.number("energy_intensity_g_per_kwh", suite.fab.fab_energy_intensity.in(g_per_kwh));
  out.number("line_yield", suite.fab.yield.line_yield);
  out.number("recycled_material_fraction", suite.fab.recycled_material_fraction);
  out.string("yield_model", to_string(suite.fab.yield.model));
  out.end_object();

  out.key("operation");
  out.begin_object();
  out.number("duty_cycle", suite.operation.duty_cycle);
  out.number("pue", suite.operation.power_usage_effectiveness);
  out.number("use_intensity_g_per_kwh", suite.operation.use_intensity.in(g_per_kwh));
  out.end_object();

  out.key("package");
  out.begin_object();
  out.number("assembly_overhead_kg", suite.package.assembly_overhead.canonical());
  out.number("footprint_ratio", suite.package.footprint_ratio);
  out.number("substrate_kg_per_cm2", suite.package.substrate_per_area.in(kg_per_cm2));
  out.string("type", to_string(suite.package.type));
  out.end_object();
  out.end_object();
}

Json to_json(const device::ChipSpec& chip) {
  return io::written_json([&](io::JsonWriter& out) { write_json(out, chip); });
}

void write_json(io::JsonWriter& out, const device::ChipSpec& chip) {
  out.begin_object();
  out.number("capacity_gates", chip.capacity_gates);
  out.number("chiplet_count", chip.chiplet_count);
  out.string("chiplet_package", chip.chiplet_package);
  out.number("die_area_mm2", chip.die_area.in(mm2));
  out.string("kind", chip.is_fpga()  ? "fpga"
                     : chip.is_gpu() ? "gpu"
                     : chip.is_cpu() ? "cpu"
                                     : "asic");
  out.string("name", chip.name);
  out.string("node", tech::to_string(chip.node));
  out.number("peak_power_w", chip.peak_power.in(w));
  out.number("service_life_years", chip.service_life.in(years));
  out.end_object();
}

Json to_json(const workload::Application& app) {
  return io::written_json([&](io::JsonWriter& out) { write_json(out, app); });
}

void write_json(io::JsonWriter& out, const workload::Application& app) {
  out.begin_object();
  out.string("domain", to_string(app.domain));
  out.number("lifetime_years", app.lifetime.in(years));
  out.string("name", app.name);
  out.number("size_gates", app.size_gates);
  out.number("volume", app.volume);
  out.end_object();
}

Json to_json(const workload::Schedule& schedule) {
  return io::written_json([&](io::JsonWriter& out) { write_json(out, schedule); });
}

void write_json(io::JsonWriter& out, const workload::Schedule& schedule) {
  out.begin_array();
  for (const workload::Application& app : schedule) {
    write_json(out, app);
  }
  out.end_array();
}

Json to_json(const CfpBreakdown& breakdown) {
  return io::written_json([&](io::JsonWriter& out) { write_json(out, breakdown); });
}

void write_json(io::JsonWriter& out, const CfpBreakdown& breakdown) {
  out.begin_object();
  out.number("app_dev_kg", breakdown.app_dev.canonical());
  out.number("design_kg", breakdown.design.canonical());
  out.number("embodied_kg", breakdown.embodied().canonical());
  out.number("eol_kg", breakdown.eol.canonical());
  out.number("manufacturing_kg", breakdown.manufacturing.canonical());
  out.number("operational_kg", breakdown.operational.canonical());
  out.number("packaging_kg", breakdown.packaging.canonical());
  out.number("total_kg", breakdown.total().canonical());
  out.end_object();
}

CfpBreakdown breakdown_from_json(const Json& json) {
  check_keys(json, "breakdown",
             {"design_kg", "manufacturing_kg", "packaging_kg", "eol_kg",
              "operational_kg", "app_dev_kg", "embodied_kg", "total_kg"});
  // Total reads (non-finite sentinels decoded): breakdowns are *result*
  // payload written by the canonical writer, never hand-authored config.
  const auto component = [&json](std::string_view key) {
    return units::CarbonMass(json.contains(key) ? json.at(key).as_number_total() : 0.0);
  };
  CfpBreakdown breakdown;
  breakdown.design = component("design_kg");
  breakdown.manufacturing = component("manufacturing_kg");
  breakdown.packaging = component("packaging_kg");
  breakdown.eol = component("eol_kg");
  breakdown.operational = component("operational_kg");
  breakdown.app_dev = component("app_dev_kg");
  return breakdown;
}

PlatformCfp platform_cfp_from_json(const Json& json) {
  check_keys(json, "platform result",
             {"kind", "chips_manufactured", "total", "per_application"});
  PlatformCfp platform;
  const std::string kind = string_field_or(json, "platform result", "kind", "ASIC");
  if (kind == "ASIC") {
    platform.kind = device::ChipKind::asic;
  } else if (kind == "FPGA") {
    platform.kind = device::ChipKind::fpga;
  } else if (kind == "GPU") {
    platform.kind = device::ChipKind::gpu;
  } else if (kind == "CPU") {
    platform.kind = device::ChipKind::cpu;
  } else {
    throw ConfigError(
        "platform result kind must be \"ASIC\", \"FPGA\", \"GPU\" or \"CPU\", got \"" +
        kind + "\"");
  }
  platform.chips_manufactured = json.number_or("chips_manufactured", 0.0);
  platform.total = breakdown_from_json(json.at("total"));
  if (json.contains("per_application")) {
    for (const Json& entry : json.at("per_application").as_array()) {
      check_keys(entry, "per_application", {"application", "chips_per_unit", "cfp"});
      ApplicationCfp app;
      app.application = string_field_or(entry, "per_application", "application", "");
      // Any count `device::fpgas_required` can return reads back.
      app.chips_per_unit = static_cast<int>(int_field_or(
          entry, "chips_per_unit", 1, 0, std::numeric_limits<int>::max()));
      app.cfp = breakdown_from_json(entry.at("cfp"));
      platform.per_application.push_back(std::move(app));
    }
  }
  return platform;
}

Json to_json(const PlatformCfp& platform) {
  return io::written_json([&](io::JsonWriter& out) { write_json(out, platform); });
}

void write_json(io::JsonWriter& out, const PlatformCfp& platform) {
  out.begin_object();
  out.number("chips_manufactured", platform.chips_manufactured);
  out.string("kind", device::kind_name(platform.kind));
  out.key("per_application");
  out.begin_array();
  for (const ApplicationCfp& app : platform.per_application) {
    out.begin_object();
    out.string("application", app.application);
    out.key("cfp");
    write_json(out, app.cfp);
    out.number("chips_per_unit", app.chips_per_unit);
    out.end_object();
  }
  out.end_array();
  out.key("total");
  write_json(out, platform.total);
  out.end_object();
}

}  // namespace greenfpga::core
