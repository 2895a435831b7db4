/// \file parallel.cpp
/// The process-lifetime worker pool behind `core::parallel_for_state`
/// (see parallel.hpp).

#include "core/parallel.hpp"

#include <condition_variable>
#include <deque>
#include <thread>
#include <vector>

namespace greenfpga::core {

namespace {

/// One `run_on_pool` call as the pool sees it.  Lives on the caller's
/// stack; the caller does not return while a helper still runs it.
struct Call {
  void (*body)(void*) = nullptr;
  void* context = nullptr;
  /// Helpers inside `body`; changed under the pool mutex, read without
  /// it only to spin.
  std::atomic<std::size_t> running{0};
  std::size_t started = 0;  ///< helpers that took a task of this call (pool mutex)
  std::condition_variable done;
};

/// Upper bound on the pool's helper threads (the engine clamps its
/// worker count to 256, one of which is always the caller).
constexpr std::size_t kMaxPoolHelpers = 255;

/// Spin iterations (about 50-100 µs) a thread polls before it sleeps.
/// Waking a sleeping thread costs tens of microseconds, and on a
/// virtualized host with idle cores up to milliseconds; a helper back
/// from a task, or a caller waiting on a helper's last items, is likely
/// to be wanted again within that window.
constexpr int kSpins = 2000;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& helper : helpers_) {
      helper.join();
    }
  }

  void run(std::size_t helpers, void (*body)(void*), void* context) {
    Call call;
    call.body = body;
    call.context = context;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      grow(helpers);
      queue_.insert(queue_.end(), helpers, &call);
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < helpers; ++i) {
      ready_.notify_one();
    }
    body(context);
    std::unique_lock<std::mutex> lock(mutex_);
    // The caller finished every item it could claim, so an unstarted
    // task would find no work: revoke it instead of waiting for a helper
    // to reach it (which, on a busy pool, may be never).
    std::erase(queue_, &call);
    queued_.store(queue_.size(), std::memory_order_relaxed);
    if (call.running.load(std::memory_order_relaxed) != 0) {
      lock.unlock();
      for (int spin = 0; spin < kSpins && call.running.load(std::memory_order_relaxed) != 0;
           ++spin) {
        cpu_relax();
      }
      lock.lock();
      call.done.wait(lock, [&call] { return call.running.load(std::memory_order_relaxed) == 0; });
    }
    if (call.started == 0) {
      tasks_inline_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void count_inline() { tasks_inline_.fetch_add(1, std::memory_order_relaxed); }

  PoolStats stats() {
    PoolStats stats;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stats.helpers = helpers_.size();
    }
    stats.tasks_run = tasks_run_.load(std::memory_order_relaxed);
    stats.tasks_inline = tasks_inline_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  WorkerPool() = default;

  /// Start helpers up to `wanted` (capped): the pool is as wide as the
  /// widest call so far.  Called with the mutex held.
  void grow(std::size_t wanted) {
    const std::size_t target = std::min(wanted, kMaxPoolHelpers);
    while (helpers_.size() < target) {
      helpers_.emplace_back([this] { helper_main(); });
    }
  }

  void helper_main() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (queue_.empty() && !stopping_) {
        lock.unlock();
        for (int spin = 0; spin < kSpins && queued_.load(std::memory_order_relaxed) == 0;
             ++spin) {
          cpu_relax();
        }
        lock.lock();
        ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      }
      if (queue_.empty()) {
        return;  // stopping
      }
      Call& call = *queue_.front();
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
      call.running.fetch_add(1, std::memory_order_relaxed);
      ++call.started;
      lock.unlock();
      call.body(call.context);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      if (call.running.fetch_sub(1, std::memory_order_relaxed) == 1) {
        // Under the mutex: the caller cannot wake, return and destroy
        // `call` until this notify is done.
        call.done.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Call*> queue_;  ///< posted, unstarted helper tasks (one entry each)
  std::atomic<std::size_t> queued_{0};  ///< queue_.size(), for spinning helpers
  std::vector<std::thread> helpers_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> tasks_inline_{0};
};

}  // namespace

PoolStats pool_stats() { return WorkerPool::instance().stats(); }

namespace detail {

void run_on_pool(std::size_t helpers, void (*body)(void*), void* context) {
  WorkerPool::instance().run(helpers, body, context);
}

void count_inline_call() { WorkerPool::instance().count_inline(); }

}  // namespace detail

}  // namespace greenfpga::core
