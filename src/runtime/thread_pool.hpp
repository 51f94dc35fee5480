// thread_pool.hpp — persistent worker pool with fork/join parallel regions.
//
// This is the stand-in for the Encore Multimax "parallel do" runtime the
// paper ran on: a fixed team of OS threads that repeatedly executes
// SPMD-style regions. The calling thread participates as member 0, so a
// pool of width 1 runs everything inline with zero threads.
//
// The doacross executor needs all `nthreads` members of a region to be
// genuinely concurrent (they busy-wait on each other), which a task-queue
// style pool does not guarantee; this fork/join design does.
//
// Shutdown: the destructor joins the workers, which blocks forever if a
// worker is wedged inside a region (a fault the containment layer did not
// reach — e.g. an uninstrumented infinite loop). shutdown(timeout) is the
// loud alternative for services: it waits a bounded time for every worker
// to exit, then detaches the stragglers and throws PoolShutdownError
// naming the stuck count instead of hanging the process teardown — and it
// releases a thread blocked in parallel_region's join on those workers,
// which rethrows PoolShutdownError there. The pool's mutable state lives
// in a shared_ptr shared with every worker, so abandoning a stuck worker
// never leaves it touching freed POOL memory; region-body state is the
// caller's to park (see PoolShutdownError).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/schedule.hpp"
#include "runtime/types.hpp"

namespace pdx::rt {

/// shutdown(timeout) expired with workers still inside a parallel region.
/// The pool has abandoned them (they keep the shared pool state alive and
/// exit harmlessly if they ever resume); the process can tear down without
/// blocking, but the stuck threads' resources are leaked until then.
///
/// Thrown from two places: shutdown() itself, and — so the teardown is
/// actually bounded — from a parallel_region() call that was blocked in
/// its join waiting on the abandoned workers. A caller unblocked this way
/// must treat the region's outputs as garbage AND must not free state the
/// region body can reach (matrix arrays, plan buffers, output vectors): an
/// abandoned worker that eventually resumes may still be touching it. Park
/// such state immortally or exit the process; shutdown(timeout) is a
/// last-resort valve for loud teardown, not a recovery mechanism.
class PoolShutdownError : public std::runtime_error {
 public:
  PoolShutdownError(unsigned stuck, unsigned total)
      : std::runtime_error("ThreadPool::shutdown: " + std::to_string(stuck) +
                           " of " + std::to_string(total) +
                           " workers still inside a parallel region past the "
                           "timeout — abandoned, not joined"),
        stuck_(stuck) {}

  unsigned stuck_workers() const noexcept { return stuck_; }

 private:
  unsigned stuck_;
};

class ThreadPool {
 public:
  /// Function run by every member of a parallel region.
  using RegionFn = std::function<void(unsigned tid, unsigned nthreads)>;

  /// Create a pool of logical width `width` (0 → hardware_concurrency).
  /// Spawns `width - 1` worker threads; the caller is always member 0.
  explicit ThreadPool(unsigned width = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Logical width (maximum region size).
  unsigned width() const noexcept { return width_; }

  /// Run `fn(tid, nthreads)` on `nthreads` members (clamped to width()).
  /// Blocks until every member finishes. The first exception thrown by any
  /// member is rethrown here after all members have completed. Throws
  /// std::logic_error after shutdown().
  void parallel_region(unsigned nthreads, const RegionFn& fn);

  /// Convenience: run `f(i)` for i in [0, n) across `nthreads` members
  /// under schedule `s`.
  template <class F>
  void parallel_for(index_t n, unsigned nthreads, F&& f,
                    const Schedule& s = {}) {
    if (n <= 0) return;
    nthreads = clamp_threads(nthreads);
    if (nthreads <= 1 || n == 1) {
      for (index_t i = 0; i < n; ++i) f(i);
      return;
    }
    std::atomic<index_t> cursor{0};
    parallel_region(nthreads, [&](unsigned tid, unsigned nth) {
      schedule_run(s, n, tid, nth, &cursor, f);
    });
  }

  /// Explicit bounded-time shutdown. Stops accepting regions, wakes every
  /// idle worker, and waits up to `timeout` for all workers to exit.
  /// Returns normally once every worker has been joined (idempotent —
  /// later calls and the destructor become no-ops). If the timeout
  /// expires with workers still executing a region, every worker thread
  /// is detached (safe: workers own a reference to the shared pool
  /// state), the pool is marked dead, and PoolShutdownError is thrown so
  /// the caller hears about the wedge instead of the destructor silently
  /// blocking forever. A thread blocked in parallel_region's join on the
  /// abandoned workers is released too: its region's outstanding count is
  /// forced to zero and that parallel_region call throws PoolShutdownError
  /// (see the class comment for what the unblocked caller may touch).
  void shutdown(std::chrono::milliseconds timeout);

  /// True once shutdown() ran (successfully or not): the pool no longer
  /// dispatches regions.
  bool is_shutdown() const noexcept;

  /// Process-wide default pool, created on first use with hardware width.
  static ThreadPool& global();

  /// The calling thread's member index: a worker's fixed tid, 0 on every
  /// other thread (a region's caller is member 0). Code running inside a
  /// region without a tid argument uses it to name its member — e.g. the
  /// fault injector's tid filter under BatchDriver's lane groups.
  static unsigned member() noexcept;
  /// True on a thread running a region body of any pool: a worker, or a
  /// region's caller while it runs member 0. Code that serves one caller
  /// through shared state and many region members through a reentrant
  /// path tells the two apart with it.
  static bool in_region() noexcept;

  /// Number of parallel_region dispatches so far (width-1 inline runs
  /// included). A fork/join is the unit of pool overhead, so fused
  /// executors assert on deltas of this counter: one preconditioner
  /// application through a TrisolvePlan must cost exactly one dispatch.
  std::uint64_t dispatch_count() const noexcept {
    return dispatches_.load(std::memory_order_relaxed);
  }

  unsigned clamp_threads(unsigned nthreads) const noexcept {
    if (nthreads == 0 || nthreads > width_) return width_;
    return nthreads;
  }

 private:
  /// State shared between the pool object and its workers. Held by
  /// shared_ptr from both sides so a detached (abandoned) worker that
  /// eventually resumes finds its synchronization objects alive even if
  /// the ThreadPool itself was destroyed.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv_start;
    std::condition_variable cv_done;
    std::condition_variable cv_exit;
    const RegionFn* job = nullptr;
    unsigned job_width = 0;
    std::uint64_t job_epoch = 0;  // bumped per dispatched region
    unsigned outstanding = 0;     // workers still inside current region
    bool stopping = false;
    unsigned exited = 0;          // workers whose loop has returned

    // shutdown() timed out and detached the workers. `outstanding` was
    // forced to 0 to release a region caller blocked in its join; the
    // caller observes this flag and throws PoolShutdownError instead of
    // trusting the (incomplete) region.
    bool abandoned = false;
    unsigned abandoned_stuck = 0;
    unsigned abandoned_total = 0;

    std::mutex exc_mu;
    std::exception_ptr first_exception;

    void record_exception() noexcept {
      std::lock_guard<std::mutex> lk(exc_mu);
      if (!first_exception) first_exception = std::current_exception();
    }
  };

  static void worker_main(std::shared_ptr<Shared> sh, unsigned tid);

  unsigned width_;
  std::shared_ptr<Shared> sh_;
  std::vector<std::thread> workers_;  // members 1 .. width_-1
  bool abandoned_ = false;            // shutdown timed out; threads detached

  std::atomic<std::uint64_t> dispatches_{0};
};

/// Snapshot of a pool's dispatch counter for asserting fork/join budgets.
/// Batched executors promise "one dispatch per batch" — tests, benches and
/// drivers verify the promise by reading `delta()` around the region(s)
/// under test instead of hand-subtracting raw dispatch_count() values.
class DispatchProbe {
 public:
  explicit DispatchProbe(const ThreadPool& pool) noexcept
      : pool_(&pool), start_(pool.dispatch_count()) {}

  /// Dispatches consumed since construction (or the last rebase()).
  std::uint64_t delta() const noexcept {
    return pool_->dispatch_count() - start_;
  }

  /// Restart the count from the pool's current value.
  void rebase() noexcept { start_ = pool_->dispatch_count(); }

 private:
  const ThreadPool* pool_;
  std::uint64_t start_;
};

}  // namespace pdx::rt
