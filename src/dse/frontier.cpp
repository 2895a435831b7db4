/// \file frontier.cpp
/// The frontier search: grid evaluation, win regions, boundaries,
/// Monte-Carlo win confidence.

#include "dse/frontier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/paper_config.hpp"
#include "core/parallel.hpp"
#include "units/units.hpp"

namespace greenfpga::dse {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

double objective_of(const core::CfpBreakdown& total, FrontierObjective objective) {
  switch (objective) {
    case FrontierObjective::total:
      return total.total().canonical();
    case FrontierObjective::embodied:
      return total.embodied().canonical();
    case FrontierObjective::operational:
      return total.operational.canonical();
  }
  throw std::logic_error("objective_of: unknown objective");
}

/// Winner rule, shared by the point pass and the confidence pass: the
/// lowest finite objective wins; exact ties break to the lowest platform
/// index (deterministic).
int winner_of(const std::vector<double>& objectives) {
  int winner = -1;
  for (std::size_t p = 0; p < objectives.size(); ++p) {
    if (std::isfinite(objectives[p]) &&
        (winner < 0 || objectives[p] < objectives[static_cast<std::size_t>(winner)])) {
      winner = static_cast<int>(p);
    }
  }
  return winner;
}

double margin_of(const std::vector<double>& objectives, int winner) {
  if (winner < 0) {
    return kInfeasible;
  }
  double runner_up = kInfeasible;
  for (std::size_t p = 0; p < objectives.size(); ++p) {
    if (static_cast<int>(p) != winner && std::isfinite(objectives[p])) {
      runner_up = std::min(runner_up, objectives[p]);
    }
  }
  return runner_up / objectives[static_cast<std::size_t>(winner)];
}

/// The grid geometry: materialised axis values plus the cell decomposition
/// (axis 0 fastest-varying, matching the scenario grid convention).
struct Grid {
  std::vector<std::vector<double>> axis_values;
  std::vector<std::size_t> sizes;
  std::size_t cells = 1;

  [[nodiscard]] std::vector<std::size_t> decompose(std::size_t index) const {
    std::vector<std::size_t> digits(sizes.size());
    for (std::size_t a = 0; a < sizes.size(); ++a) {
      digits[a] = index % sizes[a];
      index /= sizes[a];
    }
    return digits;
  }
};

Grid make_grid(const FrontierSpec& spec) {
  Grid grid;
  for (const FrontierAxisSpec& axis : spec.axes) {
    grid.axis_values.push_back(axis.values());
    grid.sizes.push_back(grid.axis_values.back().size());
    grid.cells *= grid.sizes.back();
  }
  return grid;
}

/// One platform's chip for every cell along the (optional) node axis:
/// retargets are computed once up front, and an unmanufacturable retarget
/// (reticle violation) marks the platform infeasible on that node instead
/// of failing the whole search.
struct ChipTable {
  std::optional<std::size_t> node_axis;          ///< index into spec.axes
  std::vector<std::vector<std::optional<device::ChipSpec>>> by_node;  ///< [node][platform]
  const std::vector<device::ChipSpec>* base = nullptr;

  [[nodiscard]] const std::optional<device::ChipSpec>* row(
      const std::vector<std::size_t>& digits) const {
    return node_axis ? by_node[digits[*node_axis]].data() : nullptr;
  }
};

ChipTable make_chip_table(const FrontierProblem& problem) {
  ChipTable table;
  table.base = &problem.chips;
  const std::vector<FrontierAxisSpec>& axes = problem.frontier.axes;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].variable == FrontierVariable::node) {
      table.node_axis = a;
      for (const tech::ProcessNode node : axes[a].materialised_nodes()) {
        std::vector<std::optional<device::ChipSpec>> row;
        for (const device::ChipSpec& chip : problem.chips) {
          try {
            row.push_back(problem.retarget(chip, node));
          } catch (const std::invalid_argument&) {
            row.push_back(std::nullopt);
          }
        }
        table.by_node.push_back(std::move(row));
      }
    }
  }
  return table;
}

/// The deployment schedule of one cell: the base point with each numeric
/// axis variable overridden by the cell coordinate.
workload::Schedule cell_schedule(const FrontierProblem& problem, const Grid& grid,
                                 const std::vector<std::size_t>& digits) {
  int app_count = problem.app_count;
  double lifetime_years = problem.lifetime_years;
  double volume = problem.volume;
  for (std::size_t a = 0; a < problem.frontier.axes.size(); ++a) {
    const double value = grid.axis_values[a][digits[a]];
    switch (problem.frontier.axes[a].variable) {
      case FrontierVariable::app_count:
        app_count = std::max(1, static_cast<int>(std::lround(value)));
        break;
      case FrontierVariable::lifetime_years:
        lifetime_years = value;
        break;
      case FrontierVariable::volume:
        volume = value;
        break;
      case FrontierVariable::node:
        break;  // handled by the chip table
    }
  }
  return core::paper_schedule(problem.domain, app_count,
                              lifetime_years * units::unit::years, volume);
}

/// Every platform's objective in one cell under `model`.
std::vector<double> cell_objectives(const FrontierProblem& problem,
                                    const core::LifecycleModel& model,
                                    const ChipTable& chips,
                                    const workload::Schedule& schedule,
                                    const std::vector<std::size_t>& digits) {
  std::vector<double> objectives(problem.chips.size(), kInfeasible);
  const std::optional<device::ChipSpec>* retargeted = chips.row(digits);
  for (std::size_t p = 0; p < problem.chips.size(); ++p) {
    const device::ChipSpec* chip = retargeted
                                       ? (retargeted[p] ? &*retargeted[p] : nullptr)
                                       : &(*chips.base)[p];
    if (chip == nullptr) {
      continue;  // unmanufacturable on this node
    }
    objectives[p] =
        objective_of(model.evaluate(*chip, schedule).total, problem.frontier.objective);
  }
  return objectives;
}

}  // namespace

std::size_t FrontierResult::cell_index(const std::vector<std::size_t>& indices) const {
  if (indices.size() != axis_values.size()) {
    throw std::invalid_argument("FrontierResult::cell_index: need one index per axis");
  }
  std::size_t index = 0;
  std::size_t stride = 1;
  for (std::size_t a = 0; a < indices.size(); ++a) {
    if (indices[a] >= axis_values[a].size()) {
      throw std::out_of_range("FrontierResult::cell_index: axis " + std::to_string(a) +
                              " index out of range");
    }
    index += indices[a] * stride;
    stride *= axis_values[a].size();
  }
  return index;
}

FrontierSearch::FrontierSearch(FrontierProblem problem) : problem_(std::move(problem)) {
  problem_.frontier.validate();
  if (problem_.platform_names.size() != problem_.chips.size()) {
    throw std::invalid_argument(
        "FrontierSearch: platform_names and chips must align, got " +
        std::to_string(problem_.platform_names.size()) + " names and " +
        std::to_string(problem_.chips.size()) + " chips");
  }
  if (problem_.chips.size() < 2) {
    throw std::invalid_argument("FrontierSearch: a frontier needs at least two platforms");
  }
  const bool has_node_axis = std::any_of(
      problem_.frontier.axes.begin(), problem_.frontier.axes.end(),
      [](const FrontierAxisSpec& axis) { return axis.variable == FrontierVariable::node; });
  if (has_node_axis && !problem_.retarget) {
    throw std::invalid_argument("FrontierSearch: a node axis needs a retarget hook");
  }
  if (problem_.frontier.confidence_samples > 0) {
    for (const SampledParameter& parameter : problem_.sampled) {
      parameter.distribution.validate();
      if (!parameter.apply) {
        throw std::invalid_argument("FrontierSearch: sampled parameter \"" +
                                    parameter.distribution.parameter +
                                    "\" has no applier");
      }
    }
  }
  problem_.threads = std::max(problem_.threads, 1);
}

FrontierResult FrontierSearch::run() const {
  const FrontierProblem& problem = problem_;
  const Grid grid = make_grid(problem.frontier);
  const ChipTable chips = make_chip_table(problem);

  FrontierResult result;
  result.spec = problem.frontier;
  result.platform_names = problem.platform_names;
  result.axis_values = grid.axis_values;
  result.confidence_samples = problem.frontier.confidence_samples;
  result.cells.resize(grid.cells);

  // -- point-estimate pass: one task per cell, per-worker memoised model --
  core::parallel_for_state(
      grid.cells, problem.threads,
      [&] { return core::LifecycleModel(problem.suite); },
      [&](const core::LifecycleModel& model, std::size_t i) {
        const std::vector<std::size_t> digits = grid.decompose(i);
        FrontierCell& cell = result.cells[i];
        cell.coords.reserve(digits.size());
        for (std::size_t a = 0; a < digits.size(); ++a) {
          cell.coords.push_back(grid.axis_values[a][digits[a]]);
        }
        const workload::Schedule schedule = cell_schedule(problem, grid, digits);
        cell.objective_kg = cell_objectives(problem, model, chips, schedule, digits);
        cell.winner = winner_of(cell.objective_kg);
        cell.margin = margin_of(cell.objective_kg, cell.winner);
      },
      problem.platform_names.size());

  // -- confidence pass: one task per Monte-Carlo sample, each sample
  //    re-parameterises the suite from its counter stream and re-decides
  //    every cell (pre-sized winner rows keep the reduction order fixed) --
  const int samples = problem.frontier.confidence_samples;
  if (samples > 0) {
    std::vector<std::vector<int>> winners(
        static_cast<std::size_t>(samples), std::vector<int>(grid.cells, -1));
    core::parallel_for_state(
        static_cast<std::size_t>(samples), problem.threads, [] { return 0; },
        [&](int&, std::size_t s) {
          core::ModelSuite sampled = problem.suite;
          for (std::size_t j = 0; j < problem.sampled.size(); ++j) {
            const double u = core::counter_uniform01(problem.frontier.seed, s, j);
            problem.sampled[j].apply(sampled,
                                     problem.sampled[j].distribution.sample(u));
          }
          const core::LifecycleModel model(sampled);
          for (std::size_t i = 0; i < grid.cells; ++i) {
            const std::vector<std::size_t> digits = grid.decompose(i);
            const workload::Schedule schedule = cell_schedule(problem, grid, digits);
            winners[s][i] =
                winner_of(cell_objectives(problem, model, chips, schedule, digits));
          }
        },
        grid.cells * problem.platform_names.size());
    for (std::size_t i = 0; i < grid.cells; ++i) {
      std::size_t agree = 0;
      for (int s = 0; s < samples; ++s) {
        if (winners[static_cast<std::size_t>(s)][i] == result.cells[i].winner) {
          ++agree;
        }
      }
      result.cells[i].confidence =
          static_cast<double>(agree) / static_cast<double>(samples);
    }
  }

  // -- win counts and fractions -------------------------------------------
  result.win_counts.assign(problem.chips.size(), 0);
  for (const FrontierCell& cell : result.cells) {
    if (cell.winner >= 0) {
      ++result.win_counts[static_cast<std::size_t>(cell.winner)];
    } else {
      ++result.infeasible_cells;
    }
  }
  for (const std::size_t wins : result.win_counts) {
    result.win_fraction.push_back(static_cast<double>(wins) /
                                  static_cast<double>(grid.cells));
  }

  // -- per-axis slice win fractions ----------------------------------------
  for (std::size_t a = 0; a < grid.sizes.size(); ++a) {
    for (std::size_t k = 0; k < grid.sizes[a]; ++k) {
      FrontierSlice slice;
      slice.axis = a;
      slice.value = grid.axis_values[a][k];
      std::vector<std::size_t> wins(problem.chips.size(), 0);
      std::size_t slice_cells = 0;
      for (std::size_t i = 0; i < grid.cells; ++i) {
        if (grid.decompose(i)[a] != k) {
          continue;
        }
        ++slice_cells;
        const int winner = result.cells[i].winner;
        if (winner >= 0) {
          ++wins[static_cast<std::size_t>(winner)];
        }
      }
      for (const std::size_t w : wins) {
        slice.win_fraction.push_back(static_cast<double>(w) /
                                     static_cast<double>(slice_cells));
      }
      result.slices.push_back(std::move(slice));
    }
  }

  // -- breakeven boundaries (2-axis grids): interpolated zero crossings of
  //    the pairwise objective difference between adjacent cells ------------
  if (grid.sizes.size() == 2) {
    const std::size_t nx = grid.sizes[0];
    const std::size_t ny = grid.sizes[1];
    const auto consider = [&](std::size_t ia, std::size_t ib) {
      const FrontierCell& a = result.cells[ia];
      const FrontierCell& b = result.cells[ib];
      if (a.winner < 0 || b.winner < 0 || a.winner == b.winner) {
        return;
      }
      const auto p = static_cast<std::size_t>(a.winner);
      const auto q = static_cast<std::size_t>(b.winner);
      // f(x) = objective_p - objective_q changes sign between the cells;
      // place the boundary at the linear zero crossing.
      const double fa = a.objective_kg[p] - a.objective_kg[q];
      const double fb = b.objective_kg[p] - b.objective_kg[q];
      double t = 0.5;
      if (std::isfinite(fa) && std::isfinite(fb) && fb - fa > 0.0) {
        t = std::clamp(-fa / (fb - fa), 0.0, 1.0);
      }
      const std::array<double, 2> point{
          a.coords[0] + t * (b.coords[0] - a.coords[0]),
          a.coords[1] + t * (b.coords[1] - a.coords[1])};
      const int lo = std::min(a.winner, b.winner);
      const int hi = std::max(a.winner, b.winner);
      for (FrontierBoundary& boundary : result.boundaries) {
        if (boundary.platform_a == lo && boundary.platform_b == hi) {
          boundary.points.push_back(point);
          return;
        }
      }
      result.boundaries.push_back(FrontierBoundary{lo, hi, {point}});
    };
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = y * nx + x;
        if (x + 1 < nx) {
          consider(i, i + 1);
        }
        if (y + 1 < ny) {
          consider(i, i + nx);
        }
      }
    }
    std::sort(result.boundaries.begin(), result.boundaries.end(),
              [](const FrontierBoundary& a, const FrontierBoundary& b) {
                return std::pair(a.platform_a, a.platform_b) <
                       std::pair(b.platform_a, b.platform_b);
              });
    for (FrontierBoundary& boundary : result.boundaries) {
      std::sort(boundary.points.begin(), boundary.points.end());
    }
  }
  return result;
}

}  // namespace greenfpga::dse
