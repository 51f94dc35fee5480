// service.hpp — overload-safe multi-tenant solve service (DESIGN.md §15).
//
// The serving front end the ROADMAP's north star asks for, built as a
// robustness layer first: a server that melts under a burst, hangs on a
// stuck solve, or aborts the process on one bad matrix is worse than no
// server. The §12 containment machinery makes individual solves
// fail-safe; Service makes the *service* around them fail-safe:
//
//   admission     bounded MPSC submission queue with an explicit
//                 backpressure policy — block the submitter, shed the
//                 oldest queued job, or reject the new one with an error.
//                 Nothing ever queues unboundedly.
//   deadlines     every job may carry one. A deadline that has already
//                 passed at submission is rejected without touching the
//                 queue; a job whose deadline passes while queued is
//                 expired at dequeue, never solved. Hangs *during*
//                 execution are bounded by the §12 stall watchdog
//                 (ServiceOptions::stall_budget), whose rt::StallError is
//                 annotated with the tenant and strategy context.
//   isolation     one scheduler thread packs same-matrix jobs into
//                 lockstep CG strips through per-tenant BatchDrivers over
//                 ONE shared pool; a fault inside tenant A's plan drains
//                 A's region, poisons A's plan, and leaves every other
//                 tenant's results bitwise untouched (§12).
//   breaker       repeated infrastructure failures (PlanPoisonedError,
//                 injected faults, stalls, pivot blowups) on one tenant
//                 trip a per-matrix circuit breaker: the tenant degrades
//                 to an exact serial fallback driver (no parallel region
//                 to fault) while the planned path is retried with
//                 exponential backoff; success closes the breaker.
//   plan cache    per-tenant (FactorPlan, TrisolvePlan) pairs — inside
//                 their BatchDriver — are LRU-capped across tenants;
//                 update_values() with an unchanged sparsity pattern is a
//                 value-only refresh (FactorPlan numeric pass + packed
//                 stream repack), never a plan rebuild.
//   shutdown      graceful drain with a hard timeout: new submissions
//                 are rejected, queued jobs are drained, and past the
//                 timeout the remainder is rejected loudly.
//
// Accounting is exact by construction: every submitted job is finalized
// into exactly one of {solved, rejected, expired, failed} — the counters
// in ServiceReport partition `submitted`.
//
// The whole object is exported behind an exception-free stable C ABI in
// solve/service_c.h.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "sparse/csr.hpp"

namespace pdx::solve {

/// Tenant key: returned by register_matrix, named by every job.
using MatrixId = std::uint64_t;

/// What submit() does when the bounded queue is full.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,      ///< block the submitting thread until space (or shutdown)
  kShedOldest, ///< evict the oldest queued job (it fails as rejected/shed)
  kReject,     ///< fail the NEW job immediately with queue-full
};

inline const char* to_string(BackpressurePolicy p) noexcept {
  switch (p) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kShedOldest: return "shed-oldest";
    case BackpressurePolicy::kReject: return "reject";
  }
  return "?";
}

/// Terminal state of a job. Every submitted job reaches exactly one.
enum class JobOutcome : std::uint8_t {
  kPending,   ///< not finalized yet (never returned by wait())
  kSolved,    ///< converged; solution available
  kExpired,   ///< deadline passed before the solve ran
  kRejected,  ///< never executed: backpressure shed/reject or shutdown
  kFailed,    ///< executed but did not produce a converged answer
};

inline const char* to_string(JobOutcome o) noexcept {
  switch (o) {
    case JobOutcome::kPending: return "pending";
    case JobOutcome::kSolved: return "solved";
    case JobOutcome::kExpired: return "expired";
    case JobOutcome::kRejected: return "rejected";
    case JobOutcome::kFailed: return "failed";
  }
  return "?";
}

/// Why a kRejected job was rejected (kNone otherwise).
enum class RejectReason : std::uint8_t {
  kNone,
  kQueueFull,  ///< kReject policy, queue at capacity
  kShed,       ///< kShedOldest policy evicted it to admit a newer job
  kShutdown,   ///< submitted or still queued during/after shutdown
};

inline const char* to_string(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kShed: return "shed";
    case RejectReason::kShutdown: return "shutdown";
  }
  return "?";
}

/// Per-matrix circuit breaker state (DESIGN.md §15).
enum class BreakerState : std::uint8_t {
  kClosed,   ///< healthy: jobs run the planned (parallel) path
  kOpen,     ///< tripped: jobs run the serial fallback until the backoff
  kHalfOpen, ///< backoff elapsed: the next strip probes the planned path
};

inline const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct ServiceOptions {
  /// Submission queue capacity (jobs). Admission control is the point:
  /// must be >= 1.
  std::size_t queue_capacity = 256;
  /// What submit() does when the queue is full.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Jobs per same-matrix strip the scheduler packs into one
  /// BatchDriver drain (one lockstep CG solve, each job a lane).
  std::size_t max_batch = 32;
  /// LRU cap on tenants with LIVE plans (FactorPlan + TrisolvePlan +
  /// packed streams). Registering more matrices is fine — their plans are
  /// rebuilt on demand (a cache miss) when traffic returns to them.
  std::size_t max_live_plans = 8;
  /// Deadline applied when submit() passes timeout_ms < 0. 0 = none.
  double default_timeout_ms = 0.0;
  /// Consecutive infrastructure failures (faults, stalls, poisoned
  /// plans, build blowups) on one tenant before its breaker trips.
  int breaker_threshold = 3;
  /// Initial planned-path retry backoff once tripped; doubles on every
  /// failed probe up to breaker_backoff_max_ms.
  double breaker_backoff_ms = 50.0;
  double breaker_backoff_max_ms = 5000.0;
  /// Stall watchdog budget (spin rounds per in-region wait) armed on
  /// every tenant's plans; 0 disarms. With a wedged producer this is
  /// what turns "service hangs" into "job fails with an annotated
  /// rt::StallError and the breaker counts it".
  std::uint64_t stall_budget = 0;
  /// After the drain timeout forces a hard stop, how long shutdown()
  /// waits for the scheduler to finish its current strip before breaking
  /// a wedged pool region via rt::ThreadPool::shutdown (which kills the
  /// pool for good — last resort, but it bounds teardown even with the
  /// stall watchdog disarmed and a worker spinning forever).
  double stop_grace_ms = 5000.0;
  /// Completed-job latency samples kept for the p50/p99 report (ring).
  std::size_t latency_window = 1 << 16;
  /// Per-tenant solver configuration (method, tolerance, strategy,
  /// calibration, retry ladder). stall_budget above overrides the
  /// solver's when non-zero.
  BatchDriverOptions solver;
};

/// Everything wait() tells the caller about one finished job.
struct JobResult {
  JobOutcome outcome = JobOutcome::kPending;
  RejectReason reject_reason = RejectReason::kNone;
  /// Empty iff kSolved: deadline diagnostics, backpressure reason, or the
  /// solver/infrastructure error (StallErrors arrive annotated with the
  /// tenant's strategy and matrix id).
  std::string error;
  /// The Krylov report when the job executed (kSolved / kFailed).
  SolveReport report;
  /// Served by the breaker's serial fallback path.
  bool degraded = false;
  double queue_ms = 0.0;  ///< submit -> dequeue
  double solve_ms = 0.0;  ///< dequeue -> finalize (0 if never executed)
  double total_ms = 0.0;  ///< submit -> finalize
};

/// Aggregate service telemetry. The outcome counters partition
/// `submitted` (solved + expired + rejected + failed == submitted once
/// the queue is idle); `shed` is the subset of `rejected` evicted by the
/// kShedOldest policy.
struct ServiceReport {
  std::uint64_t submitted = 0;
  std::uint64_t solved = 0;
  std::uint64_t expired = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;

  std::uint64_t degraded_jobs = 0;      ///< solved/failed via fallback
  std::uint64_t breaker_trips = 0;      ///< transitions to kOpen
  std::uint64_t breaker_recoveries = 0; ///< half-open probe successes
  std::uint64_t stalls = 0;             ///< jobs failed on rt::StallError

  std::uint64_t cache_hits = 0;       ///< strip found its plans live
  std::uint64_t cache_misses = 0;     ///< strip had to (re)build plans
  std::uint64_t cache_evictions = 0;  ///< LRU evicted a tenant's plans
  std::uint64_t value_refreshes = 0;  ///< pattern-hit value-only updates

  /// BatchDriver drains run and the jobs they carried: strip_jobs /
  /// strips is the mean strip width — how many jobs each lockstep solve
  /// advanced together.
  std::uint64_t strips = 0;
  std::uint64_t strip_jobs = 0;

  std::size_t queue_depth = 0;       ///< now
  std::size_t queue_high_water = 0;  ///< max depth ever observed
  std::size_t matrices = 0;          ///< registered tenants
  std::size_t live_plans = 0;        ///< tenants with plans built

  std::uint64_t latency_samples = 0;  ///< completed solves measured
  double p50_ms = 0.0;                ///< submit->solved latency median
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Per-tenant diagnostics (plans + breaker), for dashboards and tests.
struct MatrixInfo {
  bool live = false;  ///< plans currently built
  sparse::ExecutionStrategy strategy = sparse::ExecutionStrategy::kAuto;
  sparse::PlanLayout layout = sparse::PlanLayout::kAuto;
  double factor_ms = 0.0;
  double refresh_ms = 0.0;
  std::uint64_t refreshes = 0;
  BreakerState breaker = BreakerState::kClosed;
  int consecutive_failures = 0;
  double backoff_ms = 0.0;
  /// BatchReport::lane_groups of the tenant's latest drain (0 before the
  /// first).
  unsigned lane_groups = 0;
  /// Whether the plan that ran the tenant's latest drain walks its
  /// single-RHS serial solves in the inspector's level order (the order
  /// race's verdict, or its current candidate while it explores).
  bool wavefront = false;
};

class Service;

/// Handle to one submitted job. Shared between the caller and the
/// scheduler; safe to wait() from any thread, any number of times.
class ServiceJob {
 public:
  MatrixId matrix_id() const noexcept { return matrix_; }

  /// Block until the job is finalized and return its result. Subsequent
  /// calls return the same result without blocking.
  JobResult wait();

  /// Non-blocking: true once finalized.
  bool done() const;

  /// The solution vector; valid (and stable) once wait() reported
  /// kSolved. Empty span otherwise.
  std::span<const double> solution() const;

 private:
  friend class Service;
  using Clock = std::chrono::steady_clock;

  MatrixId matrix_ = 0;
  std::vector<double> b_;
  std::vector<double> x_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  Clock::time_point submitted_at_{};
  Clock::time_point dequeued_at_{};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool claimed_ = false;  // finalize() in progress or done (once-only)
  JobResult result_;      // result_.outcome != kPending once finalized
};

using JobHandle = std::shared_ptr<ServiceJob>;

class Service {
 public:
  /// The service shares `pool` with nobody: its scheduler thread is the
  /// pool's only caller while the service is alive (parallel regions are
  /// not reentrant). The pool must outlive the service.
  Service(rt::ThreadPool& pool, const ServiceOptions& opts = {});

  /// Hard shutdown (drain timeout 0) if the caller never called
  /// shutdown(); every still-queued job is finalized as rejected.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Register a tenant matrix (copied). Plans are built lazily on the
  /// first strip that needs them — registration itself never touches the
  /// pool. Throws std::invalid_argument on a non-square or malformed
  /// matrix, std::logic_error after shutdown.
  MatrixId register_matrix(const sparse::Csr& a);

  /// Adopt new matrix values for `id`. With an UNCHANGED sparsity
  /// pattern this is the plan-cache pattern hit: the scheduler applies a
  /// value-only refresh (FactorPlan numeric pass + packed-stream repack,
  /// no plan rebuild) before the tenant's next strip. A changed pattern
  /// replaces the matrix and invalidates the plans (rebuilt on demand).
  /// Jobs drained after this call are solved against the new operator.
  void update_values(MatrixId id, const sparse::Csr& a);

  /// Enqueue one solve of A[id] x = b (b is copied; the service owns the
  /// solution buffer — read it via ServiceJob::solution()).
  ///
  /// timeout_ms: < 0 -> ServiceOptions::default_timeout_ms; 0 -> no
  /// deadline; > 0 -> deadline = now + timeout_ms.
  ///
  /// Admission control runs here: a full queue blocks/sheds/rejects per
  /// the configured policy, and a deadline that is already unmeetable is
  /// expired immediately without queueing. Takes no tenant lock, so it
  /// never waits on the tenant's running strip. Throws std::invalid_argument
  /// for an unknown id or an undersized b (caller bugs, not overload).
  JobHandle submit(MatrixId id, std::span<const double> b,
                   double timeout_ms = -1.0);

  /// submit() with an absolute deadline (the expired-at-enqueue path is
  /// directly testable through this overload).
  JobHandle submit_at(MatrixId id, std::span<const double> b,
                      std::chrono::steady_clock::time_point deadline);

  /// Synchronous convenience: submit + wait; on kSolved the solution is
  /// copied into `x` (which must hold >= rows entries).
  JobResult solve(MatrixId id, std::span<const double> b,
                  std::span<double> x, double timeout_ms = -1.0);

  /// Graceful drain: reject new submissions, let the scheduler finish
  /// everything already queued, and — past `drain_timeout_ms` — stop it
  /// and finalize the remainder as rejected (shutdown). Returns true if
  /// the queue fully drained in time. Idempotent; the destructor calls
  /// shutdown(0).
  ///
  /// Teardown is bounded even when a strip is wedged inside a pool
  /// region (stall watchdog disarmed, worker spinning forever): after
  /// ServiceOptions::stop_grace_ms the wedged region is broken via
  /// rt::ThreadPool::shutdown — the strip's jobs fail with the
  /// PoolShutdownError text, the pool is dead afterwards, and any state
  /// the abandoned workers might still touch (plans, job buffers,
  /// tenants) is parked immortally rather than freed.
  bool shutdown(double drain_timeout_ms);

  /// Aggregate telemetry snapshot (cheap; taken under the stat locks).
  ServiceReport report() const;

  /// Per-tenant plan + breaker diagnostics.
  MatrixInfo matrix_info(MatrixId id) const;

  /// Freeze / unfreeze the scheduler's dequeue loop. An operational
  /// maintenance valve — and the deterministic way for tests to fill the
  /// bounded queue and observe each backpressure policy. Draining
  /// shutdown overrides a pause.
  void pause();
  void resume();

  /// Attach a fault-injection harness to one tenant (tests only): wired
  /// into the tenant's PLANNED driver whenever it is (re)built — never
  /// into the serial fallback, which exists to be immune. nullptr
  /// detaches.
  void set_fault_injector(MatrixId id, rt::FaultInjector* injector);

  std::size_t queue_depth() const;
  const ServiceOptions& options() const noexcept { return opts_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Tenant {
    MatrixId id = 0;
    // Row count, fixed at registration (update_values rejects a dimension
    // change) and read by submit without taking mu.
    index_t rows = 0;
    mutable std::mutex mu;  // guards everything below
    sparse::Csr a;          // the operator jobs are solved against
    std::unique_ptr<BatchDriver> driver;    // planned path (may be null)
    std::unique_ptr<BatchDriver> fallback;  // serial exact path (lazy)
    rt::FaultInjector* injector = nullptr;

    // Pending update_values payload, applied by the scheduler before the
    // tenant's next strip (clients must not run pool regions).
    bool has_pending = false;
    bool pending_same_pattern = false;
    sparse::Csr pending;

    std::uint64_t refreshes = 0;  // value-only refreshes applied
    unsigned lane_groups = 0;     // of the latest drain
    bool wavefront = false;       // of the latest drain's plan

    // Circuit breaker.
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    double backoff_ms = 0.0;
    Clock::time_point retry_at{};

    std::uint64_t last_used = 0;  // LRU tick
  };

  void scheduler_main();
  void process_strip(Tenant& t, std::vector<JobHandle>& strip);
  /// Apply a pending update_values payload (value refresh or pattern
  /// swap). Caller holds t.mu.
  void apply_pending_update(Tenant& t);
  /// Make t.driver live (LRU bookkeeping + lazy build). Caller holds
  /// t.mu; throws what the build throws.
  void ensure_driver(Tenant& t);
  void ensure_fallback(Tenant& t);
  /// Evict the least-recently-used OTHER tenant's plans if the live-plan
  /// count is at the cap. Scheduler only, called BEFORE t.mu is taken:
  /// the victim's mu, acquired inside, is the only tenant mutex held.
  void evict_for(Tenant& t);
  /// Reset t.driver and keep the live-plan count honest. Caller holds
  /// t.mu.
  void drop_driver(Tenant& t);
  /// The pool abandoned wedged workers mid-region: park the tenant's
  /// drivers and the strip's job handles immortally (an abandoned worker
  /// may still be touching them — freeing would be use-after-free).
  /// Caller holds t.mu.
  void quarantine(Tenant& t, const std::vector<JobHandle>& live);
  BatchDriverOptions planned_driver_opts() const;

  bool breaker_allows_planned(Tenant& t, Clock::time_point now);
  void breaker_note_failure(Tenant& t, Clock::time_point now);
  void breaker_note_success(Tenant& t);

  JobHandle make_job(MatrixId id, std::span<const double> b, index_t n,
                     bool has_deadline, Clock::time_point deadline);
  /// Finalize exactly once: set the outcome, bump the matching counter,
  /// record latency for solved jobs, wake waiters.
  void finalize(const JobHandle& job, JobOutcome outcome, RejectReason why,
                std::string error, const SolveReport* report, bool degraded);
  void record_latency(double ms);

  Tenant* find_tenant(MatrixId id) const;

  rt::ThreadPool* pool_;
  ServiceOptions opts_;

  mutable std::mutex tenants_mu_;
  std::unordered_map<MatrixId, std::unique_ptr<Tenant>> tenants_;
  MatrixId next_id_ = 1;
  std::size_t live_plans_ = 0;   // guarded by tenants_mu_
  std::uint64_t lru_tick_ = 0;   // guarded by tenants_mu_

  mutable std::mutex qmu_;
  std::condition_variable cv_jobs_;   // scheduler wakeups
  std::condition_variable cv_space_;  // blocked submitters
  std::condition_variable cv_done_;   // shutdown waiting on the scheduler
  std::deque<JobHandle> queue_;
  bool draining_ = false;   // no new submissions; scheduler empties queue
  bool stop_ = false;       // hard stop: scheduler exits ASAP
  bool paused_ = false;
  bool sched_done_ = false;
  bool shutdown_ran_ = false;
  std::size_t high_water_ = 0;

  // The pool abandoned workers (PoolShutdownError seen by the scheduler
  // or thrown by our own stop-grace break). The destructor then parks the
  // tenants immortally instead of freeing state a detached worker may
  // still touch.
  std::atomic<bool> pool_abandoned_{false};

  std::thread scheduler_;

  // Outcome counters. Atomics: bumped from submit (client threads) and
  // the scheduler concurrently.
  std::atomic<std::uint64_t> submitted_{0}, solved_{0}, expired_{0},
      rejected_{0}, failed_{0}, shed_{0}, degraded_jobs_{0},
      breaker_trips_{0}, breaker_recoveries_{0}, stalls_{0}, cache_hits_{0},
      cache_misses_{0}, cache_evictions_{0}, value_refreshes_{0}, strips_{0},
      strip_jobs_{0};

  mutable std::mutex lat_mu_;
  std::vector<double> latencies_;  // ring of the last latency_window
  std::size_t lat_next_ = 0;
  std::uint64_t lat_count_ = 0;
  double lat_max_ = 0.0;
};

}  // namespace pdx::solve
