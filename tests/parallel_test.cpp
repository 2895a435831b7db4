/// The worker pool behind core::parallel_for_state: every index runs
/// exactly once at any thread count, small calls stay on the caller, a
/// helper's exception reaches the caller, nested calls on a saturated pool
/// finish, and calls reuse the pool's threads instead of starting their own.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace greenfpga::core {
namespace {

/// Threads of this process (Linux: the "Threads:" line of
/// /proc/self/status); -1 where that file does not exist.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(ParallelFor, EveryIndexRunsExactlyOnceAtAnyThreadCount) {
  for (const int threads : {1, 2, 3, 8}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{1000}}) {
      std::vector<std::atomic<int>> visits(n);
      parallel_for_state(
          n, threads, [] { return 0; },
          [&](int& /*state*/, std::size_t i) { visits[i].fetch_add(1); }, kInlineWork);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "threads " << threads << " n " << n << " i " << i;
      }
    }
  }
}

TEST(ParallelFor, WorkBelowTheCutoffRunsOnTheCaller) {
  EXPECT_EQ(pool_workers(1000, 1, kInlineWork), 1u);
  EXPECT_EQ(pool_workers(kInlineWork - 1, 8), 1u);
  EXPECT_EQ(pool_workers(kInlineWork, 8), 8u);
  EXPECT_EQ(pool_workers(3, 8, kInlineWork), 3u);
  EXPECT_EQ(pool_workers(static_cast<std::size_t>(-1), 4, static_cast<std::size_t>(-1)), 4u);

  const std::uint64_t inline_before = pool_stats().tasks_inline;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  parallel_for_state(
      kInlineWork - 1, 4, [] { return 0; },
      [&](int& /*state*/, std::size_t /*i*/) {
        if (std::this_thread::get_id() != caller) {
          elsewhere.fetch_add(1);
        }
      });
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_EQ(pool_stats().tasks_inline, inline_before + 1);
}

TEST(ParallelFor, AHelpersExceptionIsRethrownOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_started{false};
  const auto throwing_call = [&] {
    parallel_for_state(
        64, 2, [] { return 0; },
        [&](int& /*state*/, std::size_t /*i*/) {
          if (std::this_thread::get_id() != caller) {
            helper_started = true;
            throw std::runtime_error("item failed on a helper");
          }
          // Hold the caller's first block until a helper has joined, so
          // the failing item really runs on a pool thread.
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
          while (!helper_started && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        },
        kInlineWork);
  };
  EXPECT_THROW(throwing_call(), std::runtime_error);
  EXPECT_TRUE(helper_started.load());
}

TEST(ParallelFor, AThrowingStateFactoryIsRethrownOnTheCaller) {
  EXPECT_THROW(parallel_for_state(
                   16, 4, []() -> int { throw std::invalid_argument("bad state"); },
                   [](int& /*state*/, std::size_t /*i*/) {}, kInlineWork),
               std::invalid_argument);
}

TEST(ParallelFor, NestedCallsFinishOnASaturatedPool) {
  // Every outer item occupies a pool thread and issues an inner call that
  // wants the whole pool again: inner helper tasks queue behind busy
  // helpers and must be revoked, not waited for.  ctest bounds this test
  // with a timeout; a deadlock fails it rather than hanging the suite.
  constexpr std::size_t kOuter = 32;
  constexpr std::size_t kInner = 500;
  std::vector<std::size_t> sums(kOuter, 0);
  parallel_for_state(
      kOuter, 16, [] { return 0; },
      [&](int& /*state*/, std::size_t o) {
        std::vector<std::size_t> inner(kInner, 0);
        parallel_for_state(
            kInner, 16, [] { return 0; },
            [&](int& /*state*/, std::size_t i) {
              inner[i] = i;
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            },
            kInlineWork);
        for (const std::size_t value : inner) {
          sums[o] += value;
        }
      },
      kInlineWork);
  for (const std::size_t sum : sums) {
    EXPECT_EQ(sum, kInner * (kInner - 1) / 2);
  }
}

TEST(ParallelFor, CallsReuseThePoolsThreads) {
  const auto call = [] {
    std::vector<int> out(4096, 0);
    parallel_for_state(
        out.size(), 4, [] { return 0; },
        [&](int& /*state*/, std::size_t i) { out[i] = static_cast<int>(i); });
  };
  call();  // the first call at this width may start the helpers
  const std::uint64_t helpers = pool_stats().helpers;
  const int threads = process_threads();
  EXPECT_GE(helpers, 3u);
  for (int k = 0; k < 100; ++k) {
    call();
  }
  EXPECT_EQ(pool_stats().helpers, helpers);
  EXPECT_EQ(process_threads(), threads);
}

}  // namespace
}  // namespace greenfpga::core
