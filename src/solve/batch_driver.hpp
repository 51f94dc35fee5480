// batch_driver.hpp — queueing front-end for many solves against one matrix.
//
// The serving shape of the ROADMAP north star: one factorization (and its
// TrisolvePlan) is built once while right-hand sides keep arriving.
// BatchDriver queues (b, x) pairs and drains them in one sweep:
//
//   * the initial residual of every queued system is screened with one
//     sparse::spmv, so already-converged systems are answered without
//     entering a Krylov loop at all;
//   * under kCg the rest advance in lockstep (pcg_lockstep), one lane of
//     a shared n-by-k strip each: every iteration is one strip SpMV and
//     one apply_strip — one wavefront-interleaved solve_strip through the
//     shared DoacrossIlu0Preconditioner — over the systems still running,
//     and a system leaves the strip when it converges, breaks down or
//     runs out of iterations. BiCGSTAB and GMRES run job by job on the
//     same plan;
//   * lane groups: when the plan is settled serial (strategy race over,
//     not poisoned) and its region is wider than one thread, the live
//     systems split into G = min(width, live / kLaneMin) contiguous
//     groups, and when G >= 2 each group runs its own pcg_lockstep — its
//     own strip and apply_strip calls — on one member of ONE pool
//     region. Lanes never read each other, so across lanes the loop is a
//     doall: no thread waits on another until the region joins
//     (DESIGN.md §8);
//   * jobs the first attempt leaves unconverged climb the per-job retry
//     ladder (max_attempts), warm-started from the first attempt's x.
//
// Results are bitwise identical to solving each system alone with
// pcg/bicgstab over a DoacrossIlu0Preconditioner (which is itself bitwise
// identical to the sequential ILU(0) path) — batching changes cost, never
// answers.
//
// Single caller at a time, like the plan it wraps. Spans handed to
// enqueue() must stay alive until the next drain() returns; the matrix
// must outlive the driver.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "solve/bicgstab.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "sparse/csr.hpp"

namespace pdx::solve {

enum class KrylovMethod : std::uint8_t { kCg, kBicgstab, kGmres };

struct BatchDriverOptions {
  KrylovMethod method = KrylovMethod::kCg;
  int max_iterations = 1000;
  double rel_tolerance = 1e-10;
  bool record_history = false;
  /// Doconsider orderings for the shared plan (PlanOptions::reorder).
  bool reorder = true;
  /// Width of the plan's strip region; 0 = pool width.
  unsigned nthreads = 0;
  /// Trisolve strategy of the shared plan. Auto calibrates: the
  /// heuristic advisor seeds the pick, the first preconditioner
  /// applications race every strategy, and the plan locks in the
  /// measured winner — consulting the process-wide tuning cache first
  /// (DESIGN.md §13; the decision and race telemetry are in the plan's
  /// PlanTelemetry).
  sparse::ExecutionStrategy strategy = sparse::ExecutionStrategy::kAuto;
  /// Numeric-factorization strategy of the shared FactorPlan
  /// (FactorPlanOptions::strategy). Deliberately independent of the
  /// trisolve pick above: factor rows carry ~nnz/row times the work of a
  /// solve row, so the measured winners often differ.
  sparse::ExecutionStrategy factor_strategy = sparse::ExecutionStrategy::kAuto;
  /// Factor layout of the shared plan (PlanOptions::layout): the
  /// default follows the resolved strategy (kCsrView for serial plans,
  /// packed execution-ordered streams otherwise); pin kPacked/kCsrView
  /// to override.
  sparse::PlanLayout layout = sparse::PlanLayout::kAuto;
  /// Calibration budget for the shared plans under kAuto — timed
  /// epochs per candidate strategy (PlanOptions::calibration_epochs /
  /// FactorPlanOptions::calibration_epochs). 0 pins the heuristic pick.
  int calibration_epochs = 2;
  /// Consult/feed the process-wide core::TuningCache so drivers rebuilt
  /// over a known pattern skip the race (PlanOptions::use_tuning_cache).
  bool use_tuning_cache = true;
  /// Retry/escalation ladder (DESIGN.md §12) for jobs that neither
  /// converge nor get screened: attempt 2 re-runs the SAME method with
  /// max_iterations * retry_iteration_factor (warm-started from the
  /// failed attempt's x); attempts 3+ escalate the method kCg →
  /// kBicgstab → kGmres at the widened budget. 1 (default) disables
  /// retries entirely.
  int max_attempts = 1;
  /// Iteration-budget multiplier applied from attempt 2 on.
  int retry_iteration_factor = 4;
  /// Restart length used when the ladder (or method) reaches kGmres.
  int gmres_restart = 30;
  /// Stall watchdog budget in spin rounds per in-region wait, for BOTH
  /// shared plans (PlanOptions::stall_budget /
  /// FactorPlanOptions::stall_budget; DESIGN.md §12). 0 (default)
  /// disarms the watchdog. Serving layers arm it so a wedged producer
  /// surfaces as rt::StallError instead of a hung drain.
  std::uint64_t stall_budget = 0;
  /// Opt-in admission screen: reject enqueue() of a b or x containing
  /// NaN/Inf (named job and row) instead of letting the garbage propagate
  /// into a breakdown mid-drain. Off by default — the scan is O(n) per
  /// enqueue.
  bool screen_nonfinite = false;
};

/// Throws std::invalid_argument unless max_iterations, max_attempts,
/// retry_iteration_factor and gmres_restart are all >= 1. The BatchDriver
/// and Service constructors both check their options through it.
void validate(const BatchDriverOptions& opts);

/// What one drain() did, plus per-job reports in enqueue order. The
/// shared plan's strategy, race, layout, kernel and refactor telemetry
/// is not copied here: read preconditioner().plan().telemetry() after
/// drain() (under kAuto the race may finish during the drain).
struct BatchReport {
  std::size_t jobs = 0;
  std::size_t converged = 0;
  /// Jobs answered by the residual screen (initial guess already
  /// within tolerance) without entering a Krylov loop.
  std::size_t screened = 0;
  std::uint64_t total_iterations = 0;
  /// Plan solves consumed by this drain — the preconditioner
  /// applications the shared TrisolvePlan amortized. A lockstep CG
  /// iteration is one solve however many systems it carries.
  std::uint64_t precond_solves = 0;
  /// Pool fork/joins consumed by this drain (rt::DispatchProbe delta).
  std::uint64_t pool_dispatches = 0;
  /// Lane groups the CG systems ran in: 1 when the drain did not split.
  /// With G >= 2, group g took the live (unscreened) systems
  /// rt::static_block_range(live, g, G) in enqueue order, and
  /// precond_solves sums the groups' strip applications.
  unsigned lane_groups = 1;
  /// Jobs whose FINAL attempt stopped on a numerical breakdown (the
  /// per-job SolveReport carries the reason).
  std::size_t breakdowns = 0;
  /// Jobs that took more than one attempt on the retry ladder.
  std::size_t retried = 0;
  /// True when the shared preconditioner served any application through
  /// its sequential fallback because the parallel plan was poisoned
  /// (DoacrossIlu0Preconditioner::degraded()). Answers are still correct;
  /// the driver has lost the parallel executor until rebuilt.
  bool degraded_serial = false;
  std::vector<SolveReport> reports;
};

class BatchDriver {
 public:
  /// Factors `a` (ILU(0)) and builds the shared plan once.
  BatchDriver(rt::ThreadPool& pool, const sparse::Csr& a,
              const BatchDriverOptions& opts = {});

  /// Queue one system A x = b. `x` carries the initial guess on entry and
  /// receives the solution at drain(). Both spans must hold >= rows()
  /// elements and outlive the next drain().
  void enqueue(std::span<const double> b, std::span<double> x);

  /// Re-factorization hook for time-stepping traffic: adopt new matrix
  /// VALUES over the same pattern (implicit integrators change values
  /// every step, never the stencil). Runs the shared preconditioner's
  /// refactor() — parallel numeric ILU(0) through the persistent
  /// FactorPlan plus a value-only TrisolvePlan refresh — and repoints
  /// the driver's SpMV screen at `a`, which must outlive the driver.
  /// Only legal between drains (throws std::logic_error with systems
  /// queued — they were enqueued against the old operator); throws
  /// std::invalid_argument on a pattern mismatch.
  void refactor(const sparse::Csr& a);

  std::size_t pending() const noexcept { return queue_.size(); }

  /// Solve everything queued (clearing the queue) and report.
  BatchReport drain();

  const DoacrossIlu0Preconditioner& preconditioner() const { return m_; }
  index_t rows() const noexcept { return a_->rows; }

  /// Attach a fault-injection harness (tests only); forwarded to the
  /// shared preconditioner's plans. nullptr detaches.
  void set_fault_injector(rt::FaultInjector* injector) noexcept {
    m_.set_fault_injector(injector);
  }

 private:
  SolveReport run_attempt(KrylovMethod method, std::span<const double> b,
                          std::span<double> x, int max_iterations);
  /// G for `live` CG systems: 1 unless the plan is settled serial and
  /// wide enough to give G >= 2 groups at least kLaneMin lanes each.
  unsigned lane_groups(std::size_t live) const;
  CgOptions cg_options(int max_iterations) const;

  struct Job {
    std::span<const double> b;
    std::span<double> x;
  };

  rt::ThreadPool* pool_;
  const sparse::Csr* a_;
  BatchDriverOptions opts_;
  DoacrossIlu0Preconditioner m_;
  std::vector<Job> queue_;
  // Screen scratch, grown once to the largest wave seen so repeated
  // drains of steady traffic allocate nothing for the screen itself.
  std::vector<double> screen_r_;  // n-by-jobs, column-major
  // Lockstep CG state, grown once like the screen scratch; each system's
  // initial residual is its screen_r_ column. One scratch per lane group.
  std::vector<CgSystem> cg_systems_;
  std::vector<CgScratch> cg_scratch_;
};

}  // namespace pdx::solve
