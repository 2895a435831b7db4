#ifndef GREENFPGA_SCENARIO_KINDS_COMMON_HPP
#define GREENFPGA_SCENARIO_KINDS_COMMON_HPP

/// \file common.hpp
/// Machinery shared by the kind modules: the parallel point executor, the
/// Monte-Carlo sample/reduce pipeline, the ASIC/FPGA testcase extractor,
/// shared validation blocks, and the frame/JSON helpers several kinds
/// emit through.  Everything here used to live inline in engine.cpp /
/// result_io.cpp / spec.cpp behind per-kind switches; the modules under
/// this directory are its only intended consumers.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "device/catalog.hpp"
#include "report/result_frame.hpp"
#include "scenario/kind_registry.hpp"

namespace greenfpga::scenario::kinds {

inline constexpr double kKgPerTonne = 1000.0;

/// The classic pool shape: each worker owns a private LifecycleModel built
/// from `suite` (the model's embodied-carbon memoisation is not
/// thread-safe to share).  `item_work` as for `core::parallel_for_state`.
template <typename Fn>
void parallel_for(std::size_t n, int threads, const core::ModelSuite& suite, Fn&& fn,
                  std::size_t item_work = 1) {
  core::parallel_for_state(
      n, threads, [&suite] { return core::LifecycleModel(suite); }, std::forward<Fn>(fn),
      item_work);
}

// -- point machinery (compare / sweep / grid) --------------------------------------

/// Materialised point grid of a compare/sweep/grid spec.
struct PointPlan {
  std::vector<std::vector<double>> axis_values;
  std::size_t total = 1;
  bool keep_per_application = false;
};

[[nodiscard]] PointPlan plan_points(const ScenarioSpec& spec);

/// The point kinds' `execute` hook: size `result.points` once, then
/// evaluate every point into its row on the pool, each worker with its own
/// model and schedule buffer.
void points_execute(const KindRunContext& context, const core::ModelSuite& suite,
                    ScenarioResult& result);

// -- Monte-Carlo reduction (montecarlo / fleet) ------------------------------------

/// Serial reduction over the filled sample matrix (deterministic order).
void reduce_montecarlo(MonteCarloUq& uq);

// -- shared extraction / validation ------------------------------------------------

/// The ASIC/FPGA testcase required by the testcase-shaped kinds.  Exactly
/// two platforms: silently ignoring extras would let a user believe e.g.
/// a GPU took part in a timeline that cannot model it.  The error names
/// the actual platform list so a four-way spec fails with an actionable
/// message instead of a bare arity complaint.
[[nodiscard]] device::DomainTestcase testcase_of(const ScenarioResult& result,
                                                 const std::string& kind_name);

/// Reject an explicit application list for kinds parameterised by the
/// homogeneous schedule fields only (timeline, breakeven, frontier,
/// fleet), where silently dropping the list would be a trap.
void require_homogeneous_schedule(const ScenarioSpec& spec);

/// Validate `spec.montecarlo.distributions` (bounds, known Table 1 names,
/// no duplicates) for every kind that samples them.
void validate_spec_distributions(const ScenarioSpec& spec);

// -- result JSON helpers -----------------------------------------------------------

/// Total read of a number array (the non-finite sentinels decode).
[[nodiscard]] std::vector<double> doubles_from_json(const io::Json& json);

// -- frame helpers -----------------------------------------------------------------

/// Ratio column label of platform `index` over the baseline.
[[nodiscard]] std::string ratio_label(const ScenarioResult& result, std::size_t index);

/// Shared frame for the point-evaluating kinds: one row per point, axis
/// coordinates first, then per-platform totals, then baseline ratios.
[[nodiscard]] report::ResultFrame points_frame(const ScenarioResult& result,
                                               const std::string& name);

/// The uncertainty summary frame over `result.uncertainty` (montecarlo
/// kind, and fleet with Monte-Carlo samples).
[[nodiscard]] report::ResultFrame uncertainty_frame(const ScenarioResult& result);

}  // namespace greenfpga::scenario::kinds

#endif  // GREENFPGA_SCENARIO_KINDS_COMMON_HPP
