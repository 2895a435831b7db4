/// \file sensitivity.cpp
/// Tornado and Monte-Carlo analyses over the Table 1 ranges.

#include "scenario/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {

namespace {

using namespace units::unit;

double ratio_for(const core::ModelSuite& suite, const device::DomainTestcase& testcase,
                 const workload::Schedule& schedule) {
  const core::LifecycleModel model(suite);
  return core::compare(model, testcase, schedule).ratio();
}

}  // namespace

const std::vector<ParameterRange>& table1_ranges() {
  static const std::vector<ParameterRange> table = [] {
    std::vector<ParameterRange> ranges;
    // C_materials: rho in [0, 1].
    ranges.push_back({"rho (recycled materials)", 0.0, 1.0,
                      [](core::ModelSuite& s, double v) {
                        s.fab.recycled_material_fraction = v;
                      }});
    // C_EOL: delta in [0, 1].
    ranges.push_back({"delta (EOL recycled)", 0.0, 1.0, [](core::ModelSuite& s, double v) {
                        s.eol.recycled_fraction = v;
                      }});
    // C_recycle: 7.65 - 29.83 MTCO2E/ton.
    ranges.push_back({"C_recycle [MTCO2E/ton]", 7.65, 29.83,
                      [](core::ModelSuite& s, double v) {
                        s.eol.recycle_credit_factor = v * mtco2e_per_ton;
                      }});
    // C_dis: 0.03 - 2.08 MTCO2E/ton.
    ranges.push_back({"C_dis [MTCO2E/ton]", 0.03, 2.08,
                      [](core::ModelSuite& s, double v) {
                        s.eol.discard_factor = v * mtco2e_per_ton;
                      }});
    // T_app,FE: 1.5 - 2.5 months.
    ranges.push_back({"T_FE [months]", 1.5, 2.5, [](core::ModelSuite& s, double v) {
                        s.appdev.frontend_time = v * months;
                      }});
    // T_app,BE: 0.5 - 1.5 months.
    ranges.push_back({"T_BE [months]", 0.5, 1.5, [](core::ModelSuite& s, double v) {
                        s.appdev.backend_time = v * months;
                      }});
    // E_des: 2 - 7.3 GWh.
    ranges.push_back({"E_des [GWh]", 2.0, 7.3, [](core::ModelSuite& s, double v) {
                        s.design.annual_energy = v * gwh;
                      }});
    // C_src,des: 30 - 700 g CO2e/kWh.
    ranges.push_back({"C_src_des [g/kWh]", 30.0, 700.0, [](core::ModelSuite& s, double v) {
                        s.design.intensity = v * g_per_kwh;
                      }});
    // N_emp,des: 20K - 160K employees.
    ranges.push_back({"N_emp_company", 20e3, 160e3, [](core::ModelSuite& s, double v) {
                        s.design.company_employees = v;
                      }});
    // T_proj: 1 - 3 years.
    ranges.push_back({"T_proj [years]", 1.0, 3.0, [](core::ModelSuite& s, double v) {
                        s.design.project_duration = v * years;
                      }});
    return ranges;
  }();
  return table;
}

double TornadoEntry::swing() const { return std::fabs(ratio_at_high - ratio_at_low); }

namespace detail {

std::vector<TornadoEntry> tornado_analysis(const core::ModelSuite& base,
                                           const device::DomainTestcase& testcase,
                                           const workload::Schedule& schedule,
                                           const std::vector<ParameterRange>& ranges) {
  std::vector<TornadoEntry> entries;
  entries.reserve(ranges.size());
  for (const ParameterRange& range : ranges) {
    core::ModelSuite at_low = base;
    range.apply(at_low, range.low);
    core::ModelSuite at_high = base;
    range.apply(at_high, range.high);
    entries.push_back(TornadoEntry{
        .name = range.name,
        .ratio_at_low = ratio_for(at_low, testcase, schedule),
        .ratio_at_high = ratio_for(at_high, testcase, schedule),
    });
  }
  std::sort(entries.begin(), entries.end(),
            [](const TornadoEntry& a, const TornadoEntry& b) { return a.swing() > b.swing(); });
  return entries;
}

MonteCarloResult monte_carlo_analysis(const core::ModelSuite& base,
                                      const device::DomainTestcase& testcase,
                                      const workload::Schedule& schedule,
                                      const std::vector<ParameterRange>& ranges,
                                      int samples, unsigned seed) {
  if (samples < 1) {
    throw std::invalid_argument("monte_carlo: need at least one sample");
  }
  std::mt19937 rng(seed);
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(samples));

  for (int i = 0; i < samples; ++i) {
    core::ModelSuite suite = base;
    for (const ParameterRange& range : ranges) {
      std::uniform_real_distribution<double> dist(range.low, range.high);
      range.apply(suite, dist(rng));
    }
    ratios.push_back(ratio_for(suite, testcase, schedule));
  }

  MonteCarloResult result;
  result.samples = samples;
  int wins = 0;
  for (const double r : ratios) {
    if (r < 1.0) ++wins;
  }
  // One shared definition of mean/stddev/percentiles (summarise_samples,
  // also behind the montecarlo kind), so the two Monte-Carlo reports can
  // never drift apart.
  const UqStat stat = summarise_samples(std::move(ratios), {5.0, 50.0, 95.0});
  result.mean = stat.mean;
  result.stddev = stat.stddev;
  result.p05 = stat.percentile_values[0];
  result.p50 = stat.percentile_values[1];
  result.p95 = stat.percentile_values[2];
  result.fpga_win_fraction = static_cast<double>(wins) / static_cast<double>(samples);
  return result;
}

}  // namespace detail

}  // namespace greenfpga::scenario
