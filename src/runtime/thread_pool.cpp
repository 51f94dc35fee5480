#include "runtime/thread_pool.hpp"

#include <cassert>

namespace pdx::rt {

namespace {
thread_local unsigned tl_member = 0;
thread_local bool tl_in_region = false;

/// Marks the calling thread as running member 0 of a region for the
/// scope, restoring the outer value (a region run inside another's body).
class RegionScope {
 public:
  RegionScope() noexcept : outer_(tl_in_region) { tl_in_region = true; }
  ~RegionScope() { tl_in_region = outer_; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool outer_;
};
}  // namespace

unsigned ThreadPool::member() noexcept { return tl_member; }
bool ThreadPool::in_region() noexcept { return tl_in_region; }

ThreadPool::ThreadPool(unsigned width)
    : width_(width == 0 ? std::max(1u, std::thread::hardware_concurrency())
                        : width),
      sh_(std::make_shared<Shared>()) {
  workers_.reserve(width_ > 0 ? width_ - 1 : 0);
  for (unsigned tid = 1; tid < width_; ++tid) {
    workers_.emplace_back([sh = sh_, tid] { worker_main(sh, tid); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;  // shutdown() already joined or abandoned
  {
    std::lock_guard<std::mutex> lk(sh_->mu);
    sh_->stopping = true;
    ++sh_->job_epoch;
  }
  sh_->cv_start.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_main(std::shared_ptr<Shared> sh, unsigned tid) {
  tl_member = tid;
  tl_in_region = true;  // a worker only ever runs region bodies
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const RegionFn* job = nullptr;
    unsigned job_width = 0;
    {
      std::unique_lock<std::mutex> lk(sh->mu);
      sh->cv_start.wait(lk,
                        [&] { return sh->stopping || sh->job_epoch != seen_epoch; });
      if (sh->stopping) break;
      seen_epoch = sh->job_epoch;
      job = sh->job;
      job_width = sh->job_width;
    }
    if (tid < job_width) {
      try {
        (*job)(tid, job_width);
      } catch (...) {
        sh->record_exception();
      }
      bool last = false;
      {
        std::lock_guard<std::mutex> lk(sh->mu);
        // An abandoned shutdown already forced outstanding to 0 to
        // release the region caller; a worker resuming afterwards must
        // not underflow the counter.
        if (sh->outstanding > 0) last = (--sh->outstanding == 0);
      }
      if (last) sh->cv_done.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lk(sh->mu);
    ++sh->exited;
  }
  sh->cv_exit.notify_all();
}

void ThreadPool::parallel_region(unsigned nthreads, const RegionFn& fn) {
  nthreads = clamp_threads(nthreads);
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  if (nthreads <= 1) {
    const RegionScope scope;
    fn(0, 1);
    return;
  }

  {
    std::lock_guard<std::mutex> lk(sh_->mu);
    if (sh_->stopping) {
      throw std::logic_error(
          "ThreadPool::parallel_region: pool is shut down");
    }
    assert(sh_->outstanding == 0 && "parallel_region is not reentrant");
    sh_->job = &fn;
    sh_->job_width = nthreads;
    sh_->outstanding = nthreads - 1;  // workers 1..nthreads-1
    ++sh_->job_epoch;
  }
  sh_->cv_start.notify_all();

  // The calling thread is member 0.
  try {
    const RegionScope scope;
    fn(0, nthreads);
  } catch (...) {
    sh_->record_exception();
  }

  bool abandoned = false;
  unsigned abandoned_stuck = 0, abandoned_total = 0;
  {
    std::unique_lock<std::mutex> lk(sh_->mu);
    sh_->cv_done.wait(lk, [&] { return sh_->outstanding == 0; });
    sh_->job = nullptr;
    abandoned = sh_->abandoned;
    abandoned_stuck = sh_->abandoned_stuck;
    abandoned_total = sh_->abandoned_total;
  }

  std::exception_ptr eptr;
  {
    std::lock_guard<std::mutex> lk(sh_->exc_mu);
    eptr = sh_->first_exception;
    sh_->first_exception = nullptr;
  }
  if (abandoned) {
    // shutdown(timeout) released this join by force: some member never
    // finished, so the region's outputs are unreliable and a detached
    // worker may still be executing the body. This outranks any recorded
    // member exception.
    throw PoolShutdownError(abandoned_stuck, abandoned_total);
  }
  if (eptr) std::rethrow_exception(eptr);
}

void ThreadPool::shutdown(std::chrono::milliseconds timeout) {
  if (workers_.empty()) return;  // width 1, already joined, or abandoned
  const unsigned total = static_cast<unsigned>(workers_.size());
  bool all_exited;
  {
    std::unique_lock<std::mutex> lk(sh_->mu);
    sh_->stopping = true;
    ++sh_->job_epoch;
    sh_->cv_start.notify_all();
    all_exited = sh_->cv_exit.wait_for(
        lk, timeout, [&] { return sh_->exited == total; });
  }
  if (all_exited) {
    for (auto& t : workers_) t.join();
    workers_.clear();
    return;
  }
  // Workers are wedged inside a region. Joining would block exactly like
  // the destructor we exist to improve on; instead abandon every thread.
  // Each holds its own shared_ptr to the pool state, so a worker that
  // eventually resumes finds live synchronization objects, observes
  // `stopping`, and exits without touching this (possibly destroyed)
  // ThreadPool.
  unsigned stuck;
  {
    std::lock_guard<std::mutex> lk(sh_->mu);
    stuck = total - sh_->exited;
    sh_->abandoned = true;
    sh_->abandoned_stuck = stuck;
    sh_->abandoned_total = total;
    // A region caller may be blocked in parallel_region's join waiting
    // on the very workers we just gave up on — force the count to zero
    // and wake it so IT can tear down too (it throws PoolShutdownError
    // after observing `abandoned`).
    sh_->outstanding = 0;
  }
  sh_->cv_done.notify_all();
  for (auto& t : workers_) t.detach();
  workers_.clear();
  abandoned_ = true;
  throw PoolShutdownError(stuck, total);
}

bool ThreadPool::is_shutdown() const noexcept {
  std::lock_guard<std::mutex> lk(sh_->mu);
  return sh_->stopping;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pdx::rt
