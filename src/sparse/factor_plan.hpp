// factor_plan.hpp — persistent ILU(0) factorization plans: the paper's
// symbolic/numeric split applied to our own preprocessing step.
//
// PRs 1–4 amortized the triangular *solve*: inspect the dependence
// structure once, execute many times. But in a time-stepping workload the
// matrix VALUES change every step while the PATTERN does not, and the
// ILU(0) factorization itself — still a sequential loop in ilu0() — plus
// a full TrisolvePlan rebuild became the dominant per-step cost. The
// elimination loop of ILU(0) carries exactly the row-on-earlier-row true
// dependences the doacross machinery already schedules: row i reads the
// finalized values of every row k < i stored in its strictly-lower
// pattern, which is the lower-triangular-solve dependence DAG.
//
// A FactorPlan does the symbolic phase ONCE per sparsity pattern:
//
//   symbolic (once)                 numeric (every value change)
//   ---------------                 ----------------------------
//   diagonal positions              zero heap allocation
//   per-row scatter maps            O(1) epoch flag reset
//   (elimination steps compiled     one pool fork/join (zero for the
//    to flat target/source pairs)    serial strategy)
//   doconsider levels of the        bitwise identical values to the
//    lower pattern                   sequential ilu0()
//   strategy selection
//    (core::advise_factor_schedule)
//
// and then runs parallel numeric factorizations on the executor core
// TrisolvePlan runs on (core::DagPlan — flags, levels or serial; DESIGN.md
// §11): the plan supplies only the row body. Results are bitwise identical to
// ilu0() under every strategy because each row's arithmetic
// — the step order, the update order within a step, the divisions — is
// exactly the sequential IKJ loop's, and a row only ever reads rows that
// have fully retired.
//
// Lifetime: the plan copies the pattern it was built from (it outlives
// the matrix); factorize() validates each incoming matrix against that
// pattern and throws on mismatch. One caller at a time, like
// TrisolvePlan.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/advisor.hpp"
#include "core/dag_plan.hpp"
#include "runtime/aligned.hpp"
#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/kernels.hpp"
#include "sparse/trisolve_plan.hpp"

namespace pdx::sparse {

struct FactorPlanOptions {
  /// Region width; 0 → the pool's full width (fixed at build time).
  unsigned nthreads = 0;
  /// Execution scheme for the numeric phase. kAuto measures the lower
  /// pattern's dependence structure at build time and takes
  /// core::advise_factor_schedule's pick as the opening bid
  /// (factorization rows carry ~nnz/row times the work of a solve row,
  /// so synchronization amortizes sooner than the solve advisor
  /// assumes); with a viable race the first factorize() calls then time
  /// every strategy and lock in the measured winner — same calibration
  /// protocol as TrisolvePlan (DESIGN.md §13).
  ExecutionStrategy strategy = ExecutionStrategy::kAuto;
  /// Calibration budget under kAuto: timed factorizations per candidate
  /// strategy before the race locks in. 0 keeps the heuristic pick.
  int calibration_epochs = 2;
  /// Consult (and feed) the process-wide core::TuningCache (keyed with
  /// factor=true — solve winners never leak into factorization picks).
  bool use_tuning_cache = true;
  /// Stall watchdog budget in spin rounds for every in-region wait
  /// (flags and barriers); 0 (default) disarms the watchdog. See
  /// PlanOptions::stall_budget.
  std::uint64_t stall_budget = 0;
  /// Zero/non-finite pivot recovery (DESIGN.md §12). The substitution is
  /// applied at pivot production, before the row is published, so every
  /// execution strategy produces factors bitwise identical to
  /// ilu0(a, pivot).
  PivotOptions pivot;
};

/// What one numeric factorization cost.
struct FactorStats {
  double factor_seconds = 0.0;
  std::uint64_t wait_episodes = 0;
  std::uint64_t wait_rounds = 0;
  /// Bad pivots substituted in the accepted pass (kShift/kReplace only).
  std::uint64_t pivot_shifts = 0;
  /// The substitute value the accepted pass used (0.0 when clean).
  double pivot_shift = 0.0;
  /// Numeric passes run (> 1 only under kShift escalation).
  int shift_passes = 1;
};

/// What the plan decided and owns — reported by benches and forwarded
/// (as PlanTelemetry::factor_*) by the solve layer. The decision and
/// race fields come from core::ExecTelemetry, which the plan's executor
/// core writes.
struct FactorTelemetry : core::ExecTelemetry {
  /// Bytes of the symbolic products (scatter maps, step tables, pattern
  /// copy, working array) the plan owns.
  std::size_t symbolic_bytes = 0;
  /// Heap footprint of one allocated factor pair (Csr::memory_bytes()
  /// over L and U) — what allocate_factors() costs the caller.
  std::size_t factor_bytes = 0;
  /// Lifetime count of substituted pivots across every factorize() call.
  std::uint64_t total_pivot_shifts = 0;
  /// Substitute value of the most recent factorize that shifted (0.0 if
  /// the plan has never shifted a pivot).
  double last_shift = 0.0;
};

/// Persistent ILU(0) plan over one sparsity pattern: symbolic phase at
/// construction, then parallel zero-allocation numeric factorizations of
/// any matrix sharing the pattern.
class FactorPlan {
 public:
  /// Symbolic phase over `a`'s pattern (square, sorted rows, explicit
  /// diagonal in every row). `a`'s values are not read and `a` need not
  /// outlive the plan.
  FactorPlan(rt::ThreadPool& pool, const Csr& a,
             const FactorPlanOptions& opts = {});

  // The pre-bound region functor captures `this`.
  FactorPlan(const FactorPlan&) = delete;
  FactorPlan& operator=(const FactorPlan&) = delete;

  /// Allocate an L/U pair with the plan's split pattern: L = strictly
  /// lower + explicit unit diagonal (1.0, last in each row), U = diagonal
  /// + strictly upper. Exact-size allocations; values are zero except L's
  /// unit diagonal until factorize() fills them. The returned factors are
  /// what TrisolvePlan / refresh_values consume.
  IluFactors allocate_factors() const;

  /// Numeric phase: factor `a` (same pattern as the plan's) into `f`
  /// (allocated by allocate_factors(), or any factor pair with the
  /// identical split pattern — e.g. a previous ilu0(a) result, whose
  /// values are simply overwritten). At most one pool fork/join (zero for
  /// kSerial), zero heap allocation, values bitwise identical to
  /// ilu0(a). Throws std::invalid_argument on a pattern mismatch (before
  /// any value is written) and std::runtime_error on a zero/invalid
  /// pivot — after the region completes, since workers must never throw
  /// while peers may be spinning on their flags. On the pivot throw `f`
  /// holds the failed factorization's (inf/NaN-contaminated) values; a
  /// subsequent successful factorize rewrites every value and recovers
  /// it.
  FactorStats factorize(const Csr& a, IluFactors& f);

  index_t rows() const noexcept { return n_; }
  unsigned nthreads() const noexcept { return core_.nthreads(); }
  /// The resolved execution strategy (never kAuto; the current race
  /// candidate while calibrating()).
  ExecutionStrategy strategy() const noexcept { return telemetry_.strategy; }
  /// True while a kAuto calibration race is still exploring — the next
  /// factorize() calls time the remaining candidates (bitwise identical
  /// factors throughout) before the plan locks in.
  bool calibrating() const noexcept { return core_.calibrating(); }
  const FactorTelemetry& telemetry() const noexcept { return telemetry_; }
  /// Completed factorize() calls.
  std::uint64_t factorizations() const noexcept { return factorizations_; }
  /// True once an in-region fault poisoned the plan (a worker threw or
  /// stalled mid-factorization); every later factorize() throws
  /// rt::PlanPoisonedError. A clean pivot throw does NOT poison — a
  /// refactorize with good values recovers the plan.
  bool poisoned() const noexcept { return core_.poisoned(); }
  /// Attach a fault-injection harness (tests only); nullptr detaches.
  void set_fault_injector(rt::FaultInjector* injector) noexcept {
    core_.set_fault_injector(injector);
  }

 private:
  /// The row body: eliminate row i in place in w_ and split it into the
  /// factors. `wait(k)` is called before row k's values are read.
  template <class WaitFn>
  void factor_row(index_t i, WaitFn&& wait);
  bool split_idx_matches(const IluFactors& f) const noexcept;
  void build_symbolic(const Csr& a);

  FactorPlanOptions opts_;
  index_t n_ = 0;
  FactorTelemetry telemetry_;
  core::DagPlan core_;  // writes telemetry_'s decision fields
  // The scatter updates run the dispatched table (DESIGN.md §14).
  const kernels::LaneOps* lanes_ = &kernels::dispatched_ops();

  // --- symbolic products (pattern-derived, built once) ---
  std::vector<index_t> ptr_, idx_;     // pattern copy (validation + kernel)
  std::vector<index_t> diag_;          // position of (i, i) in idx_/w_
  std::vector<index_t> lptr_, uptr_;   // row pointers of the split factors
  // Elimination steps: row i's steps are [row_step_ptr_[i],
  // row_step_ptr_[i+1]); step s eliminates with pivot row idx_[lik_pos_[s]]
  // whose diagonal lives at pivot_pos_[s], and applies the update pairs
  // w[upd_tgt_[t]] -= lik * w[upd_src_[t]] for t in [upd_ptr_[s],
  // upd_ptr_[s+1]) — the scatter of the sequential IKJ loop compiled to a
  // flat stream.
  std::vector<index_t> row_step_ptr_, lik_pos_, pivot_pos_;
  std::vector<index_t> upd_ptr_, upd_tgt_, upd_src_;

  // --- numeric scratch (allocated once, reused every factorize) ---
  std::vector<double, rt::CacheAlignedAllocator<double>> w_;
  std::atomic<index_t> bad_row_{-1};

  /// Substituted pivots of the current pass (kShift/kReplace).
  std::atomic<std::uint64_t> shift_count_{0};
  /// Substitute value of the current kShift pass (escalates per pass).
  double shift_sigma_ = 0.0;

  // Per-call endpoints, published to the pre-bound region functor through
  // members (same trick as TrisolvePlan: the std::function is constructed
  // exactly once, so factorize() never allocates).
  const double* aval_ = nullptr;
  double* lval_ = nullptr;
  double* uval_ = nullptr;

  // Buffers that already passed the full O(nnz) pattern validation; a
  // steady-state factorize over the same buffers skips straight to the
  // numeric phase.
  const index_t* checked_ptr_ = nullptr;
  const index_t* checked_idx_ = nullptr;
  const index_t* checked_lidx_ = nullptr;
  const index_t* checked_uidx_ = nullptr;

  rt::ThreadPool::RegionFn region_;
  std::uint64_t factorizations_ = 0;
};

}  // namespace pdx::sparse
