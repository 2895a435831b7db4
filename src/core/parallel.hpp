#ifndef GREENFPGA_CORE_PARALLEL_HPP
#define GREENFPGA_CORE_PARALLEL_HPP

/// \file parallel.hpp
/// The deterministic parallel-for shared by every evaluation subsystem
/// (`scenario::Engine` and its batch, the frontier, montecarlo, fleet and
/// node_dse kinds, and the chunked result writer), over one worker pool
/// that lives as long as the process.
///
/// One contract, stated once: work items are independent, each writes to
/// a pre-sized slot of its own, and every item is computed by the same
/// deterministic code from the same inputs -- so results are bit-identical
/// for ANY worker count.  The pool only changes *which thread* computes a
/// slot, never *what* is computed.
///
/// The pool's helper threads start on first use and are reused by every
/// later call; no call creates a thread of its own.  A call's caller
/// always works its own items, and up to `threads - 1` helper tasks join
/// it.  A helper task that has not started by the time the caller runs
/// out of items is revoked, never waited for, so a saturated pool (or a
/// nested call made from inside a pool task) degrades to the caller
/// working alone instead of deadlocking.  Calls whose estimated work is
/// below `kInlineWork` run inline on the caller: waking a helper costs
/// more than such a call computes.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <utility>

namespace greenfpga::core {

/// Estimated work, in model evaluations (one platform at one point),
/// below which a parallel call runs inline on the calling thread.  On a
/// 4-vCPU Xeon VM an evaluation costs about 0.7 µs and a sleeping helper
/// starts 15-60 µs after it is posted; a 12 x 12 grid (288 evaluations)
/// ran 1.5x faster at 2 threads than at 1, and below that the wake-up is
/// a large share of the whole call.
inline constexpr std::size_t kInlineWork = 256;

/// The number of workers (caller included) a parallel call over `n`
/// items of `item_work` estimated evaluations each would use on up to
/// `threads` workers: 1 -- inline on the caller -- below `kInlineWork`.
[[nodiscard]] inline std::size_t pool_workers(std::size_t n, int threads,
                                              std::size_t item_work = 1) {
  // n * item_work < kInlineWork, without overflowing on huge requests.
  if (threads <= 1 || n <= 1 || item_work == 0 || n <= (kInlineWork - 1) / item_work) {
    return 1;
  }
  return std::min(n, static_cast<std::size_t>(threads));
}

/// Lifetime counters of the process's worker pool.
struct PoolStats {
  std::uint64_t helpers = 0;       ///< helper threads started (they never exit early)
  std::uint64_t tasks_run = 0;     ///< helper tasks executed
  std::uint64_t tasks_inline = 0;  ///< multi-thread calls the caller ran alone
};

[[nodiscard]] PoolStats pool_stats();

namespace detail {

/// Run `body(context)` on the caller, and post `helpers` tasks running
/// the same body to the pool; returns once the caller's body has returned
/// and every posted task has either finished or been revoked unstarted.
/// `body` must not throw.
void run_on_pool(std::size_t helpers, void (*body)(void*), void* context);

/// Count a call that wanted several threads but ran inline (the cutoff).
void count_inline_call();

}  // namespace detail

/// Run `fn(state, index)` for every index in [0, n) on up to `threads`
/// workers, where each worker owns a private `state = make_state()`.
/// `item_work` estimates one item's cost in model evaluations (points x
/// platforms, say) for the inline cutoff.  Work items are independent and
/// write to disjoint slots, so results are identical for any worker
/// count; the first exception is rethrown on the caller's thread.
template <typename MakeState, typename Fn>
void parallel_for_state(std::size_t n, int threads, MakeState&& make_state, Fn&& fn,
                        std::size_t item_work = 1) {
  const std::size_t workers = pool_workers(n, threads, item_work);
  if (workers <= 1) {
    if (threads > 1 && n > 1) {
      detail::count_inline_call();
    }
    auto state = make_state();
    for (std::size_t i = 0; i < n; ++i) {
      fn(state, i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto work = [&] {
    if (next.load(std::memory_order_relaxed) >= n) {
      return;  // a helper that starts late: skip building its state
    }
    // The whole body (state construction included -- suite validation
    // can throw) stays inside the try: an exception escaping a helper
    // would call std::terminate instead of reporting a runtime error.
    try {
      auto state = make_state();
      // Guided self-scheduling: claim a contiguous block of about half a
      // worker's share of what is left, so claims are few (a cache line
      // shared across cores is costly to write) and neighbouring slots
      // are written by one thread, yet the last blocks stay small enough
      // to balance the tail.
      std::size_t begin = next.load(std::memory_order_relaxed);
      for (;;) {
        if (begin >= n) {
          return;
        }
        const std::size_t block = std::max<std::size_t>(1, (n - begin) / (2 * workers));
        if (!next.compare_exchange_weak(begin, begin + block, std::memory_order_relaxed)) {
          continue;  // `begin` now holds the current cursor
        }
        for (const std::size_t end = std::min(begin + block, n); begin < end; ++begin) {
          fn(state, begin);
        }
        begin = next.load(std::memory_order_relaxed);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) {
        first_error = std::current_exception();
      }
      next.store(n, std::memory_order_relaxed);  // drain remaining work
    }
  };
  detail::run_on_pool(
      workers - 1, [](void* context) { (*static_cast<decltype(work)*>(context))(); }, &work);
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace greenfpga::core

#endif  // GREENFPGA_CORE_PARALLEL_HPP
