#include "solve/service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pdx::solve {

namespace {

std::chrono::steady_clock::duration ms_duration(double ms) {
  if (ms < 0.0) ms = 0.0;
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool same_pattern(const sparse::Csr& a, const sparse::Csr& b) {
  return a.rows == b.rows && a.cols == b.cols && a.ptr == b.ptr &&
         a.idx == b.idx;
}

void validate_matrix(const sparse::Csr& a, const char* who) {
  if (a.rows <= 0 || a.rows != a.cols) {
    throw std::invalid_argument(std::string(who) +
                                ": matrix must be square and non-empty");
  }
  if (a.ptr.size() != static_cast<std::size_t>(a.rows) + 1 ||
      a.idx.size() != a.val.size() ||
      a.idx.size() != static_cast<std::size_t>(a.ptr.back())) {
    throw std::invalid_argument(std::string(who) + ": malformed CSR arrays");
  }
}

/// State a detached (abandoned) pool worker may still be executing
/// against: plans, job buffers, whole tenants. Parked here immortally on
/// the PoolShutdownError teardown path — freeing it would turn a wedged
/// worker into a use-after-free, and the process is about to exit anyway.
/// The registry itself is intentionally never destroyed (static pointer)
/// so it also survives static teardown order.
std::vector<std::shared_ptr<void>>& abandoned_parking() {
  static auto* v = new std::vector<std::shared_ptr<void>>();
  return *v;
}
std::mutex& abandoned_parking_mu() {
  static auto* m = new std::mutex();
  return *m;
}

void park_abandoned(std::shared_ptr<void> p) {
  if (!p) return;
  std::lock_guard<std::mutex> lk(abandoned_parking_mu());
  abandoned_parking().push_back(std::move(p));
}

}  // namespace

// ---------------------------------------------------------------- ServiceJob

JobResult ServiceJob::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return result_.outcome != JobOutcome::kPending; });
  return result_;
}

bool ServiceJob::done() const {
  std::lock_guard<std::mutex> lk(mu_);
  return result_.outcome != JobOutcome::kPending;
}

std::span<const double> ServiceJob::solution() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (result_.outcome != JobOutcome::kSolved) return {};
  return {x_.data(), x_.size()};
}

// ------------------------------------------------------------------- Service

Service::Service(rt::ThreadPool& pool, const ServiceOptions& opts)
    : pool_(&pool), opts_(opts) {
  if (opts_.queue_capacity < 1) {
    throw std::invalid_argument("Service: queue_capacity must be >= 1");
  }
  if (opts_.max_batch < 1) {
    throw std::invalid_argument("Service: max_batch must be >= 1");
  }
  if (opts_.max_live_plans < 1) {
    throw std::invalid_argument("Service: max_live_plans must be >= 1");
  }
  if (opts_.breaker_threshold < 1) {
    throw std::invalid_argument("Service: breaker_threshold must be >= 1");
  }
  validate(opts_.solver);
  if (opts_.latency_window < 1) opts_.latency_window = 1;
  latencies_.reserve(std::min<std::size_t>(opts_.latency_window, 4096));
  scheduler_ = std::thread([this] { scheduler_main(); });
}

Service::~Service() {
  try {
    shutdown(0.0);
  } catch (...) {
    // Destructors must not throw; shutdown(0) only throws on programmer
    // error, and the scheduler has been joined by the time it does.
  }
  if (pool_abandoned_.load(std::memory_order_acquire)) {
    // A detached worker may still be executing a region body that reaches
    // into a tenant's matrix or plans: park every tenant immortally
    // instead of freeing it (see abandoned_parking above).
    std::lock_guard<std::mutex> lk(tenants_mu_);
    for (auto& [id, t] : tenants_) {
      park_abandoned(std::shared_ptr<void>(std::move(t)));
    }
    tenants_.clear();
  }
}

MatrixId Service::register_matrix(const sparse::Csr& a) {
  validate_matrix(a, "Service::register_matrix");
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (draining_ || stop_) {
      throw std::logic_error("Service::register_matrix: service is shut down");
    }
  }
  std::lock_guard<std::mutex> lk(tenants_mu_);
  const MatrixId id = next_id_++;
  auto t = std::make_unique<Tenant>();
  t->id = id;
  t->rows = a.rows;
  t->a = a;
  tenants_.emplace(id, std::move(t));
  return id;
}

Service::Tenant* Service::find_tenant(MatrixId id) const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void Service::update_values(MatrixId id, const sparse::Csr& a) {
  validate_matrix(a, "Service::update_values");
  Tenant* t = find_tenant(id);
  if (!t) {
    throw std::invalid_argument("Service::update_values: unknown matrix id " +
                                std::to_string(id));
  }
  std::lock_guard<std::mutex> lk(t->mu);
  if (a.rows != t->rows) {
    throw std::invalid_argument(
        "Service::update_values: dimension change (" +
        std::to_string(t->rows) + " -> " + std::to_string(a.rows) +
        ") — register a new matrix instead");
  }
  // Deferred: the scheduler applies it before the tenant's next strip.
  // Clients must never run pool regions themselves (the refresh is a
  // parallel numeric factorization), and the driver may be mid-drain.
  t->pending = a;
  t->pending_same_pattern = same_pattern(a, t->a);
  t->has_pending = true;
}

void Service::set_fault_injector(MatrixId id, rt::FaultInjector* injector) {
  Tenant* t = find_tenant(id);
  if (!t) {
    throw std::invalid_argument(
        "Service::set_fault_injector: unknown matrix id " +
        std::to_string(id));
  }
  std::lock_guard<std::mutex> lk(t->mu);
  t->injector = injector;
  if (t->driver) t->driver->set_fault_injector(injector);
  // Never the fallback: it exists to be immune.
}

JobHandle Service::make_job(MatrixId id, std::span<const double> b, index_t n,
                            bool has_deadline, Clock::time_point deadline) {
  auto job = std::make_shared<ServiceJob>();
  job->matrix_ = id;
  job->b_.assign(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
  job->x_.assign(static_cast<std::size_t>(n), 0.0);
  job->has_deadline_ = has_deadline;
  job->deadline_ = deadline;
  job->submitted_at_ = Clock::now();
  return job;
}

JobHandle Service::submit(MatrixId id, std::span<const double> b,
                          double timeout_ms) {
  if (timeout_ms < 0.0) timeout_ms = opts_.default_timeout_ms;
  if (timeout_ms > 0.0) {
    return submit_at(id, b, Clock::now() + ms_duration(timeout_ms));
  }
  return submit_at(id, b, Clock::time_point{});  // sentinel: no deadline
}

JobHandle Service::submit_at(MatrixId id, std::span<const double> b,
                             std::chrono::steady_clock::time_point deadline) {
  Tenant* t = find_tenant(id);
  if (!t) {
    throw std::invalid_argument("Service::submit: unknown matrix id " +
                                std::to_string(id));
  }
  // Read without t->mu, which the scheduler holds for a whole strip:
  // jobs for the tenant being solved queue up for its next strip instead
  // of waiting for this one.
  const index_t n = t->rows;
  if (static_cast<index_t>(b.size()) < n) {
    throw std::invalid_argument(
        "Service::submit: b has " + std::to_string(b.size()) +
        " entries but matrix " + std::to_string(id) + " has " +
        std::to_string(n) + " rows");
  }

  const bool has_deadline = deadline != Clock::time_point{};
  JobHandle job = make_job(id, b, n, has_deadline, deadline);
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Unmeetable before it is even queued: expire without touching the
  // queue (no solve is ever attempted — the acceptance criterion).
  if (has_deadline && Clock::now() >= deadline) {
    finalize(job, JobOutcome::kExpired, RejectReason::kNone,
             "deadline already expired at submission", nullptr, false);
    return job;
  }

  std::unique_lock<std::mutex> lk(qmu_);
  if (draining_ || stop_) {
    lk.unlock();
    finalize(job, JobOutcome::kRejected, RejectReason::kShutdown,
             "service is shutting down", nullptr, false);
    return job;
  }

  if (queue_.size() >= opts_.queue_capacity) {
    switch (opts_.backpressure) {
      case BackpressurePolicy::kReject: {
        lk.unlock();
        finalize(job, JobOutcome::kRejected, RejectReason::kQueueFull,
                 "queue full (capacity " +
                     std::to_string(opts_.queue_capacity) +
                     ", policy reject)",
                 nullptr, false);
        return job;
      }
      case BackpressurePolicy::kShedOldest: {
        JobHandle victim = std::move(queue_.front());
        queue_.pop_front();
        shed_.fetch_add(1, std::memory_order_relaxed);
        finalize(victim, JobOutcome::kRejected, RejectReason::kShed,
                 "shed by a newer submission (capacity " +
                     std::to_string(opts_.queue_capacity) +
                     ", policy shed-oldest)",
                 nullptr, false);
        break;  // fall through to enqueue the new job
      }
      case BackpressurePolicy::kBlock: {
        const auto space = [&] {
          return queue_.size() < opts_.queue_capacity || draining_ || stop_;
        };
        if (has_deadline) {
          if (!cv_space_.wait_until(lk, deadline, space)) {
            lk.unlock();
            finalize(job, JobOutcome::kExpired, RejectReason::kNone,
                     "deadline expired while blocked on admission",
                     nullptr, false);
            return job;
          }
        } else {
          cv_space_.wait(lk, space);
        }
        if (draining_ || stop_) {
          lk.unlock();
          finalize(job, JobOutcome::kRejected, RejectReason::kShutdown,
                   "service shut down while blocked on admission", nullptr,
                   false);
          return job;
        }
        break;
      }
    }
  }

  queue_.push_back(job);
  high_water_ = std::max(high_water_, queue_.size());
  lk.unlock();
  cv_jobs_.notify_one();
  return job;
}

JobResult Service::solve(MatrixId id, std::span<const double> b,
                         std::span<double> x, double timeout_ms) {
  JobHandle job = submit(id, b, timeout_ms);
  JobResult res = job->wait();
  if (res.outcome == JobOutcome::kSolved) {
    std::span<const double> sol = job->solution();
    if (x.size() < sol.size()) {
      throw std::invalid_argument("Service::solve: x span too small");
    }
    std::copy(sol.begin(), sol.end(), x.begin());
  }
  return res;
}

bool Service::shutdown(double drain_timeout_ms) {
  {
    std::unique_lock<std::mutex> lk(qmu_);
    draining_ = true;
    cv_jobs_.notify_all();
    cv_space_.notify_all();
    const auto deadline = Clock::now() + ms_duration(drain_timeout_ms);
    if (!cv_done_.wait_until(lk, deadline, [&] { return sched_done_; })) {
      // Drain timeout: stop the scheduler after its current strip and
      // fail whatever is still queued, loudly, below.
      stop_ = true;
      cv_jobs_.notify_all();
      // The scheduler normally exits within moments of finishing its
      // current strip. If that strip is wedged inside a pool region
      // (stall watchdog disarmed, worker spinning forever), waiting
      // unconditionally would hang the very teardown this API bounds:
      // past the grace period, break the region. ThreadPool::shutdown
      // abandons the wedged workers and releases the scheduler's join
      // with PoolShutdownError, which process_strip turns into failed
      // jobs (with the wedge-reachable state parked, not freed); the
      // scheduler then sees stop_ and exits.
      if (!cv_done_.wait_for(lk, ms_duration(opts_.stop_grace_ms),
                             [&] { return sched_done_; })) {
        lk.unlock();
        try {
          pool_->shutdown(std::chrono::milliseconds(0));
        } catch (const rt::PoolShutdownError&) {
          pool_abandoned_.store(true, std::memory_order_release);
        }
        lk.lock();
      }
      cv_done_.wait(lk, [&] { return sched_done_; });
    }
  }
  if (scheduler_.joinable()) scheduler_.join();

  std::deque<JobHandle> leftover;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    leftover.swap(queue_);
  }
  for (const JobHandle& job : leftover) {
    finalize(job, JobOutcome::kRejected, RejectReason::kShutdown,
             "service shut down before the job ran", nullptr, false);
  }
  return leftover.empty();
}

void Service::pause() {
  std::lock_guard<std::mutex> lk(qmu_);
  paused_ = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    paused_ = false;
  }
  cv_jobs_.notify_all();
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lk(qmu_);
  return queue_.size();
}

// -------------------------------------------------------------- scheduler

void Service::scheduler_main() {
  for (;;) {
    std::vector<JobHandle> strip;
    MatrixId mid = 0;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      cv_jobs_.wait(lk, [&] {
        if (stop_) return true;
        if (draining_) return true;  // drain ignores pause
        return !paused_ && !queue_.empty();
      });
      if (stop_) break;
      if (queue_.empty()) {
        if (draining_) break;
        continue;
      }
      // Pack a same-matrix strip: the front job names the tenant; pull
      // every queued job for it (up to max_batch) so the whole strip is
      // one plan-shared BatchDriver drain.
      mid = queue_.front()->matrix_id();
      for (auto it = queue_.begin();
           it != queue_.end() && strip.size() < opts_.max_batch;) {
        if ((*it)->matrix_id() == mid) {
          strip.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    cv_space_.notify_all();

    Tenant* t = find_tenant(mid);
    // Tenants are never erased, so t is always valid.
    //
    // process_strip handles every failure it expects; this catch is the
    // last line of defense, because an exception escaping here would
    // std::terminate the scheduler thread and strand every waiter. Moved-
    // out (null) handles were finalized inside process_strip; finalize is
    // idempotent for the rest.
    try {
      process_strip(*t, strip);
    } catch (const std::exception& e) {
      for (const JobHandle& job : strip) {
        if (!job) continue;
        finalize(job, JobOutcome::kFailed, RejectReason::kNone,
                 std::string("internal error: ") + e.what(), nullptr, false);
      }
    } catch (...) {
      for (const JobHandle& job : strip) {
        if (!job) continue;
        finalize(job, JobOutcome::kFailed, RejectReason::kNone,
                 "internal error: unknown exception", nullptr, false);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(qmu_);
    sched_done_ = true;
  }
  cv_done_.notify_all();
}

void Service::process_strip(Tenant& t, std::vector<JobHandle>& strip) {
  const auto now = Clock::now();

  // Deadline enforcement at dequeue: a job whose deadline has passed is
  // expired here and never reaches a solver.
  // Handles are COPIED (shared_ptr), not moved: strip must stay intact so
  // scheduler_main's last-resort catch can still finalize every job if
  // something unexpected escapes this function.
  std::vector<JobHandle> live;
  live.reserve(strip.size());
  for (JobHandle& job : strip) {
    job->dequeued_at_ = now;
    if (job->has_deadline_ && now >= job->deadline_) {
      finalize(job, JobOutcome::kExpired, RejectReason::kNone,
               "deadline expired while queued", nullptr, false);
    } else {
      live.push_back(job);
    }
  }
  if (live.empty()) return;

  // Make LRU capacity BEFORE taking t.mu: evict_for locks a victim
  // tenant's mu, and holding two peer tenant mutexes at once would put
  // them into a lock-order cycle (strip A evicts B, strip B evicts A).
  // No thread may ever hold two tenant mutexes. The unlocked peeks are
  // safe on this thread: t.driver and the breaker fields are written
  // only by the scheduler, and the build decision below recomputes the
  // same breaker condition under t.mu with the same `now`.
  const bool will_build_planned =
      !t.driver &&
      (t.breaker != BreakerState::kOpen || now >= t.retry_at);
  if (will_build_planned) evict_for(t);

  std::lock_guard<std::mutex> lk(t.mu);

  const auto fail_all = [&](const std::string& err, bool degraded) {
    for (const JobHandle& job : live) {
      finalize(job, JobOutcome::kFailed, RejectReason::kNone, err, nullptr,
               degraded);
    }
  };

  // Breaker gate BEFORE touching plans: an open breaker routes the strip
  // to the exact serial fallback without rebuilding the planned driver.
  const bool planned = breaker_allows_planned(t, now);

  BatchDriver* d = nullptr;
  try {
    if (planned) {
      apply_pending_update(t);
      ensure_driver(t);
      d = t.driver.get();
    } else {
      apply_pending_update(t);
      ensure_fallback(t);
      d = t.fallback.get();
    }
  } catch (rt::StallError& e) {
    // A stall watchdog fired inside a refresh's parallel refactor. The
    // in-drain stall path degrades silently inside the preconditioner;
    // this one surfaces here, so annotate it with the serving context
    // before the tenant's job-level error is written.
    if (t.driver) {
      e.add_context(
          "strategy " +
          std::string(core::to_string(
              t.driver->preconditioner().plan().strategy())) +
          ", matrix " + std::to_string(t.id));
    } else {
      e.add_context("matrix " + std::to_string(t.id));
    }
    stalls_.fetch_add(1, std::memory_order_relaxed);
    if (planned) drop_driver(t);
    t.fallback.reset();
    breaker_note_failure(t, now);
    fail_all(std::string("plan build/refresh failed: ") + e.what(), !planned);
    return;
  } catch (const rt::PoolShutdownError& e) {
    // Teardown broke a wedged build/refresh region: abandoned workers may
    // still touch the plans — park, never free.
    pool_abandoned_.store(true, std::memory_order_release);
    quarantine(t, live);
    fail_all(std::string("plan build/refresh failed: ") + e.what(), !planned);
    return;
  } catch (const std::exception& e) {
    // Build/refresh blew up (zero pivot, poisoned refresh, injected
    // fault): infrastructure failure before any job ran. The fallback
    // driver goes too — if the refresh threw after apply_pending_update
    // adopted the new values, its factors are stale/partially updated
    // (the StallError path above does the same).
    if (planned) drop_driver(t);
    t.fallback.reset();
    breaker_note_failure(t, now);
    fail_all(std::string("plan build/refresh failed: ") + e.what(), !planned);
    return;
  }

  try {
    for (const JobHandle& job : live) {
      d->enqueue(job->b_, job->x_);
    }
  } catch (const std::exception& e) {
    // BatchDriver::enqueue rejects undersized or (with screen_nonfinite)
    // non-finite inputs. Sizes were validated at submit, so this is a
    // client-data error, not an infrastructure failure — the breaker is
    // not charged. The partially enqueued strip left spans into the
    // jobs' buffers inside the driver, so the driver is discarded rather
    // than reused with a stale queue.
    if (planned) drop_driver(t);
    t.fallback.reset();
    fail_all(std::string("enqueue failed: ") + e.what(), !planned);
    return;
  }

  strips_.fetch_add(1, std::memory_order_relaxed);
  strip_jobs_.fetch_add(live.size(), std::memory_order_relaxed);
  try {
    const BatchReport rep = d->drain();
    t.lane_groups = rep.lane_groups;
    t.wavefront = d->preconditioner().plan().telemetry().order ==
                  core::WalkOrder::kWavefront;
    const bool degraded = !planned || rep.degraded_serial;
    for (std::size_t j = 0; j < live.size(); ++j) {
      const SolveReport& sr = rep.reports[j];
      if (sr.converged) {
        finalize(live[j], JobOutcome::kSolved, RejectReason::kNone, "", &sr,
                 degraded);
      } else {
        std::string err = sr.breakdown
                              ? "numerical breakdown: " + sr.breakdown_reason
                              : "did not converge in " +
                                    std::to_string(sr.iterations) +
                                    " iterations";
        finalize(live[j], JobOutcome::kFailed, RejectReason::kNone,
                 std::move(err), &sr, degraded);
      }
    }
    if (planned) {
      if (rep.degraded_serial) {
        // An in-region fault poisoned the plan mid-drain. The answers
        // above are still exact (§12), but the parallel executor is
        // gone: drop the driver and count an infrastructure failure.
        drop_driver(t);
        breaker_note_failure(t, now);
      } else {
        breaker_note_success(t);
      }
    }
  } catch (rt::StallError& e) {
    e.add_context("strategy " +
                  std::string(core::to_string(
                      d->preconditioner().plan().strategy())) +
                  ", matrix " + std::to_string(t.id));
    stalls_.fetch_add(1, std::memory_order_relaxed);
    if (planned) drop_driver(t);
    t.fallback.reset();  // cheap to rebuild; never keep a suspect driver
    breaker_note_failure(t, now);
    fail_all(e.what(), !planned);
  } catch (const rt::PoolShutdownError& e) {
    // Teardown broke this wedged drain: the abandoned workers may still
    // be executing against the plans and the jobs' b/x buffers — park
    // everything, never free it.
    pool_abandoned_.store(true, std::memory_order_release);
    quarantine(t, live);
    fail_all(e.what(), !planned);
  } catch (const std::exception& e) {
    // Anything else out of a drain (PlanPoisonedError, injected faults
    // rethrown at the join, pivot blowups from a retry refresh...): the
    // driver's internal queue state is unknown — discard it.
    if (planned) drop_driver(t);
    t.fallback.reset();
    breaker_note_failure(t, now);
    fail_all(e.what(), !planned);
  }
}

void Service::apply_pending_update(Tenant& t) {
  if (!t.has_pending) return;
  t.has_pending = false;
  if (t.pending_same_pattern) {
    t.a.val = std::move(t.pending.val);
    t.pending = sparse::Csr{};
    if (t.driver) {
      // The plan-cache pattern hit: parallel numeric refactor through the
      // persistent FactorPlan + value-only TrisolvePlan refresh. Throws
      // on a bad pivot — the caller treats that as an infrastructure
      // failure (factors are contaminated until a healthy refactor).
      t.driver->refactor(t.a);
      value_refreshes_.fetch_add(1, std::memory_order_relaxed);
      ++t.refreshes;
    }
    // No live driver: the values are adopted now, plans build from them
    // on demand (still no symbolic work wasted).
    if (t.fallback) t.fallback->refactor(t.a);
  } else {
    // Pattern changed: plans are structurally invalid. Drop them first
    // (they hold a pointer to t.a) and rebuild lazily.
    drop_driver(t);
    t.fallback.reset();
    t.a = std::move(t.pending);
    t.pending = sparse::Csr{};
  }
}

void Service::ensure_driver(Tenant& t) {
  if (t.driver) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    // Cache capacity was made by process_strip's evict_for call BEFORE
    // t.mu was taken (two tenant mutexes must never nest). The other
    // build path — a pattern change that drop_driver()ed inside
    // apply_pending_update — freed its own slot, so no eviction is
    // needed here either.
    auto d = std::make_unique<BatchDriver>(*pool_, t.a, opts_.solver);
    if (t.injector) d->set_fault_injector(t.injector);
    t.driver = std::move(d);
    std::lock_guard<std::mutex> lk(tenants_mu_);
    ++live_plans_;
  }
  std::lock_guard<std::mutex> lk(tenants_mu_);
  t.last_used = ++lru_tick_;
}

void Service::ensure_fallback(Tenant& t) {
  if (t.fallback) return;
  // Exact serial path: sequential-chain strategy over the CSR view, no
  // parallel region to fault, no strategy race, watchdog irrelevant. The
  // Krylov configuration (method, tolerance, retry ladder) is kept so
  // degraded answers meet the same convergence contract, and so is the
  // calibration budget: the serial plan still races its walk order,
  // which is bitwise invisible (DESIGN.md §13). The degraded path neither
  // reads nor writes the process-wide TuningCache.
  BatchDriverOptions o = opts_.solver;
  o.strategy = sparse::ExecutionStrategy::kSerial;
  o.layout = sparse::PlanLayout::kCsrView;
  o.nthreads = 1;
  o.use_tuning_cache = false;
  o.stall_budget = 0;
  t.fallback = std::make_unique<BatchDriver>(*pool_, t.a, o);
}

void Service::drop_driver(Tenant& t) {
  if (!t.driver) return;
  t.driver.reset();
  std::lock_guard<std::mutex> lk(tenants_mu_);
  --live_plans_;
}

void Service::quarantine(Tenant& t, const std::vector<JobHandle>& live) {
  if (t.driver) {
    park_abandoned(std::shared_ptr<void>(std::move(t.driver)));
    std::lock_guard<std::mutex> lk(tenants_mu_);
    --live_plans_;
  }
  if (t.fallback) {
    park_abandoned(std::shared_ptr<void>(std::move(t.fallback)));
  }
  for (const JobHandle& job : live) {
    park_abandoned(std::static_pointer_cast<void>(job));
  }
}

void Service::evict_for(Tenant& t) {
  // Scheduler-only, called from process_strip BEFORE t.mu is taken: the
  // victim's mu is the only tenant mutex this function (or its caller)
  // holds at any instant, so peer tenant mutexes never nest and cannot
  // form a lock-order cycle. tenants_mu_ stays innermost throughout.
  Tenant* victim = nullptr;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    if (live_plans_ < opts_.max_live_plans) return;
    std::uint64_t oldest = UINT64_MAX;
    for (const auto& [id, up] : tenants_) {
      Tenant* c = up.get();
      if (c == &t) continue;
      // last_used is guarded by tenants_mu_; whether c actually holds a
      // live driver is checked under c->mu below.
      if (c->last_used < oldest) {
        // Only consider plausible victims; the authoritative driver
        // check happens under c->mu.
        oldest = c->last_used;
        victim = c;
      }
    }
  }
  // Walk victims from least recently used until one actually held plans.
  // (The simple scan above can name a tenant that never built plans; in
  // that case re-scan excluding it.)
  std::vector<const Tenant*> skip;
  while (victim) {
    {
      std::lock_guard<std::mutex> vl(victim->mu);
      if (victim->driver) {
        victim->driver.reset();
        victim->fallback.reset();
        cache_evictions_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(tenants_mu_);
        --live_plans_;
        return;
      }
    }
    skip.push_back(victim);
    Tenant* next = nullptr;
    {
      std::lock_guard<std::mutex> lk(tenants_mu_);
      if (live_plans_ < opts_.max_live_plans) return;
      std::uint64_t oldest = UINT64_MAX;
      for (const auto& [id, up] : tenants_) {
        Tenant* c = up.get();
        if (c == &t) continue;
        if (std::find(skip.begin(), skip.end(), c) != skip.end()) continue;
        if (c->last_used < oldest) {
          oldest = c->last_used;
          next = c;
        }
      }
    }
    victim = next;
  }
  // Every other tenant is plan-less yet live_plans_ is at the cap: the
  // cap must be 1 and t itself holds the only plans — nothing to do.
}

// ---------------------------------------------------------------- breaker

bool Service::breaker_allows_planned(Tenant& t, Clock::time_point now) {
  switch (t.breaker) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      return true;  // probe already in flight (strips are sequential)
    case BreakerState::kOpen:
      if (now >= t.retry_at) {
        t.breaker = BreakerState::kHalfOpen;  // backoff elapsed: probe
        return true;
      }
      return false;
  }
  return true;
}

void Service::breaker_note_failure(Tenant& t, Clock::time_point now) {
  ++t.consecutive_failures;
  const bool probe_failed = t.breaker == BreakerState::kHalfOpen;
  if (!probe_failed && t.breaker == BreakerState::kClosed &&
      t.consecutive_failures < opts_.breaker_threshold) {
    return;  // not yet: give the planned path its remaining chances
  }
  if (t.breaker == BreakerState::kOpen) return;  // already open (fallback err)
  // Trip (first time) or re-trip (failed half-open probe): exponential
  // backoff, capped.
  t.backoff_ms = t.backoff_ms <= 0.0
                     ? opts_.breaker_backoff_ms
                     : std::min(t.backoff_ms * 2.0, opts_.breaker_backoff_max_ms);
  t.breaker = BreakerState::kOpen;
  t.retry_at = now + ms_duration(t.backoff_ms);
  breaker_trips_.fetch_add(1, std::memory_order_relaxed);
}

void Service::breaker_note_success(Tenant& t) {
  t.consecutive_failures = 0;
  if (t.breaker != BreakerState::kClosed) {
    t.breaker = BreakerState::kClosed;
    t.backoff_ms = 0.0;
    breaker_recoveries_.fetch_add(1, std::memory_order_relaxed);
  }
}

// -------------------------------------------------------------- accounting

void Service::finalize(const JobHandle& job, JobOutcome outcome,
                       RejectReason why, std::string error,
                       const SolveReport* report, bool degraded) {
  const auto now = Clock::now();
  {
    // Claim once-only, but don't publish the outcome yet: counters must
    // be visible BEFORE wait() can return, so a caller who sees its job
    // finished also sees it counted in report().
    std::lock_guard<std::mutex> lk(job->mu_);
    if (job->claimed_) return;  // paranoia: every job finalizes once
    job->claimed_ = true;
  }
  const double total_ms = elapsed_ms(job->submitted_at_, now);

  switch (outcome) {
    case JobOutcome::kSolved:
      solved_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobOutcome::kExpired:
      expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobOutcome::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobOutcome::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobOutcome::kPending:
      break;  // unreachable
  }
  if (degraded) degraded_jobs_.fetch_add(1, std::memory_order_relaxed);
  if (outcome == JobOutcome::kSolved) record_latency(total_ms);

  {
    std::lock_guard<std::mutex> lk(job->mu_);
    JobResult& r = job->result_;
    r.outcome = outcome;
    r.reject_reason = why;
    r.error = std::move(error);
    if (report) r.report = *report;
    r.degraded = degraded;
    r.total_ms = total_ms;
    if (job->dequeued_at_ != Clock::time_point{}) {
      r.queue_ms = elapsed_ms(job->submitted_at_, job->dequeued_at_);
      r.solve_ms = elapsed_ms(job->dequeued_at_, now);
    } else {
      r.queue_ms = r.total_ms;
      r.solve_ms = 0.0;
    }
  }
  job->cv_.notify_all();
}

void Service::record_latency(double ms) {
  std::lock_guard<std::mutex> lk(lat_mu_);
  if (latencies_.size() < opts_.latency_window) {
    latencies_.push_back(ms);
  } else {
    latencies_[lat_next_] = ms;
    lat_next_ = (lat_next_ + 1) % opts_.latency_window;
  }
  ++lat_count_;
  lat_max_ = std::max(lat_max_, ms);
}

ServiceReport Service::report() const {
  ServiceReport r;
  r.submitted = submitted_.load(std::memory_order_relaxed);
  r.solved = solved_.load(std::memory_order_relaxed);
  r.expired = expired_.load(std::memory_order_relaxed);
  r.rejected = rejected_.load(std::memory_order_relaxed);
  r.failed = failed_.load(std::memory_order_relaxed);
  r.shed = shed_.load(std::memory_order_relaxed);
  r.degraded_jobs = degraded_jobs_.load(std::memory_order_relaxed);
  r.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  r.breaker_recoveries = breaker_recoveries_.load(std::memory_order_relaxed);
  r.stalls = stalls_.load(std::memory_order_relaxed);
  r.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  r.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  r.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  r.value_refreshes = value_refreshes_.load(std::memory_order_relaxed);
  r.strips = strips_.load(std::memory_order_relaxed);
  r.strip_jobs = strip_jobs_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(qmu_);
    r.queue_depth = queue_.size();
    r.queue_high_water = high_water_;
  }
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    r.matrices = tenants_.size();
    r.live_plans = live_plans_;
  }
  {
    std::lock_guard<std::mutex> lk(lat_mu_);
    r.latency_samples = lat_count_;
    r.max_ms = lat_max_;
    if (!latencies_.empty()) {
      std::vector<double> sorted(latencies_);
      std::sort(sorted.begin(), sorted.end());
      const auto q = [&](double p) {
        const std::size_t i = static_cast<std::size_t>(
            p * static_cast<double>(sorted.size() - 1) + 0.5);
        return sorted[std::min(i, sorted.size() - 1)];
      };
      r.p50_ms = q(0.50);
      r.p99_ms = q(0.99);
    }
  }
  return r;
}

MatrixInfo Service::matrix_info(MatrixId id) const {
  Tenant* t = find_tenant(id);
  if (!t) {
    throw std::invalid_argument("Service::matrix_info: unknown matrix id " +
                                std::to_string(id));
  }
  MatrixInfo info;
  std::lock_guard<std::mutex> lk(t->mu);
  info.live = t->driver != nullptr;
  if (t->driver) {
    const sparse::TrisolvePlan& plan = t->driver->preconditioner().plan();
    info.strategy = plan.strategy();
    info.layout = plan.layout();
    info.factor_ms = plan.telemetry().factor_ms;
    info.refresh_ms = plan.telemetry().refresh_ms;
  }
  info.refreshes = t->refreshes;
  info.lane_groups = t->lane_groups;
  info.wavefront = t->wavefront;
  info.breaker = t->breaker;
  info.consecutive_failures = t->consecutive_failures;
  info.backoff_ms = t->backoff_ms;
  return info;
}

}  // namespace pdx::solve
