// trisolve_plan.hpp — persistent solve plans for repeated triangular
// solves (the paper's amortization premise, applied to our own runtime).
//
// The paper's whole argument is that execution-time preprocessing pays off
// because "the same loop is executed many times" (§1): the inspector runs
// once, the executor many times. Our hottest repeated path — the ILU(0)
// preconditioner inside Krylov iterations — was still re-paying per-call
// setup on every trisolve_doacross call: a fresh rt::Barrier, two
// std::vector<rt::Padded<...>> allocations, a full flag-reset sweep plus
// the barrier fencing it, and two separate pool fork/joins per
// preconditioner application.
//
// A TrisolvePlan is built once per factorization and hoists all of that
// out of the run loop:
//
//   build time (once)          solve time (every Krylov iteration)
//   -----------------          -----------------------------------
//   strategy selection         zero heap allocation
//   doconsider reorderings     O(1) begin_epoch() flag reset
//   EpochReadyTables (L, U)    no postprocessing sweep, no extra barrier
//   padded wait-stat slots     ONE pool fork/join for L⁻¹ then U⁻¹
//   reusable barrier           (threads flow from the forward solve into
//   pre-bound region functors   the backward solve through one in-region
//   packed factor streams       barrier); factors read as linear,
//    (first-touched per thread)  execution-ordered record streams
//
// Plans are *strategy-polymorphic* (DESIGN.md §9): the same build-time
// analysis that makes the dependence structure measurable also selects
// the execution scheme. The schedules, waits, dispatch and strategy race
// live in the executor core (core::DagPlan) shared with FactorPlan; this
// plan supplies the row bodies — one single-RHS row and one k-wide strip
// row, shared by L and U — plus packing and its public API. Every
// strategy is bitwise identical to the sequential Fig. 7 solves;
// the parallel strategies keep the one-dispatch-per-solve budget, and the
// serial strategy costs zero dispatches (the whole point of choosing it).
//
// Lifetime: the plan keeps references to the pool and the factor matrices;
// both must outlive it. One plan serves one caller at a time (solve
// members mutate plan-owned scratch state), exactly like DoacrossEngine —
// except solve_strip on a settled serial plan, which is reentrant (see
// there). Epoch semantics and the deadlock-freedom argument are in
// DESIGN.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/advisor.hpp"
#include "core/dag_plan.hpp"
#include "core/doacross_stats.hpp"
#include "core/doconsider.hpp"
#include "runtime/aligned.hpp"
#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/kernels.hpp"
#include "sparse/packed_stream.hpp"

namespace pdx::sparse {

/// Execution scheme of a plan. The vocabulary lives in core (the advisor
/// names a strategy from measured structure); the sparse layer implements
/// it:
///
///   kDoacross      — busy-wait ready flags over the doconsider order,
///                    dynamic issue (the paper's executor).
///   kLevelBarrier  — bulk-synchronous wavefronts: rows of one level run
///                    as a doall, a barrier separates levels, NO per-row
///                    flags at all (the level order already proves every
///                    producer finished).
///   kSerial        — the plain sequential solves on the calling thread:
///                    zero pool dispatches, zero synchronization. Chosen
///                    when the dependence chain leaves nothing to overlap.
///                    Its single-RHS walks over CSR views race source
///                    order against the doconsider level order (the
///                    wavefront walk) and keep the faster (DESIGN.md §13).
///   kAuto          — measure the factor at build time and let
///                    core::advise_schedule pick one of the above.
using ExecutionStrategy = core::ExecStrategy;

/// Memory layout the plan's kernels read the factors through
/// (DESIGN.md §10).
///
///   kPacked  — plan-owned packed record streams in schedule execution
///              order, per-thread slabs first-touched by their executing
///              thread: the hot loop becomes a linear walk.
///   kCsrView — read the caller's CSR directly (zero-copy); the
///              historical behavior, and the right call when the factor
///              is too large to duplicate or the plan runs only a few
///              times.
///   kAuto    — (default) follow the resolved strategy: kCsrView for
///              kSerial (the packed duplication measurably loses there —
///              BENCH_strategy layout_speedup 0.66–0.96 on serial picks),
///              kPacked for every parallel strategy. Resolved after
///              calibration when the strategy itself is under a race.
enum class PlanLayout : std::uint8_t { kPacked, kCsrView, kAuto };

inline const char* to_string(PlanLayout l) noexcept {
  switch (l) {
    case PlanLayout::kPacked: return "packed";
    case PlanLayout::kCsrView: return "csr-view";
    case PlanLayout::kAuto: return "auto";
  }
  return "?";
}

/// What the plan decided and why — reported by benches and BatchDriver.
/// The decision and race fields come from core::ExecTelemetry, which the
/// plan's executor core writes.
struct PlanTelemetry : core::ExecTelemetry {
  /// The process-wide dispatched ISA (CPUID + PDX_KERNEL; DESIGN.md §14).
  kernels::KernelIsa isa = kernels::KernelIsa::kScalar;
  /// The table the lane kernels run: kScalar when pinned or when the
  /// machine has no vector table, kVector otherwise.
  kernels::KernelChoice kernel = kernels::KernelChoice::kScalar;
  /// Resolved factor layout (kCsrView for empty plans even when packing
  /// was requested — there is nothing to pack).
  PlanLayout layout = PlanLayout::kCsrView;
  /// Plan-owned packed stream bytes across both factors (0 for kCsrView).
  std::size_t packed_bytes = 0;
  /// Last numeric refactorization feeding this plan, in milliseconds —
  /// recorded by the solve layer via record_factorization() (0 until the
  /// first refactor).
  double factor_ms = 0.0;
  /// Last refresh_values() sweep, in milliseconds (0 until the first).
  double refresh_ms = 0.0;
};

struct PlanOptions {
  /// Region width; 0 → the pool's full width. Fixed at build time (the
  /// plan's barrier and wait-stat slots are sized once).
  unsigned nthreads = 0;
  /// Execution scheme. kAuto measures the LOWER factor's dependence
  /// structure at build time, takes core::advise_schedule's heuristic
  /// pick as the opening bid, then — when a race is viable (parallel
  /// width, calibration_epochs > 0) — times every strategy on the first
  /// real solves and locks in the measured winner (DESIGN.md §13); the
  /// process-wide core::TuningCache short-circuits repeat patterns. One
  /// decision covers both solves, which is right for ILU-style pairs
  /// whose U mirrors L's structure; callers pairing structurally
  /// unrelated factors should pick a strategy explicitly. The default
  /// preserves the historical flag-based plan behavior. A doacross plan
  /// always walks the doconsider order; its schedule is fixed by the
  /// executor core (core::DagPlan::schedule).
  ExecutionStrategy strategy = ExecutionStrategy::kDoacross;
  /// Factor memory layout. kAuto (default) resolves from the strategy —
  /// kCsrView for serial plans, kPacked otherwise; kPacked re-streams
  /// both factors into plan-owned, execution-ordered, NUMA-first-touched
  /// record slabs (one extra pool dispatch, ~the factors' size in extra
  /// memory); kCsrView pins the zero-copy read-through-the-caller's-CSR
  /// behavior. Results are bitwise identical in every layout.
  PlanLayout layout = PlanLayout::kAuto;
  /// Calibration budget under ExecutionStrategy::kAuto: timed solves per
  /// candidate strategy before the race locks in (the whole race costs
  /// 3 * calibration_epochs solves — all of them REAL solves the caller
  /// needed anyway, each bitwise identical to the locked-in plan). 0
  /// disables the race: Auto keeps the heuristic advisor's pick, the
  /// historical behavior. The strategy race is skipped for pinned
  /// strategies, single-threaded plans, and empty systems. The same
  /// budget times each walk order of a serial plan — pinned or Auto, at
  /// any width — on its first fused single-RHS solves (2 *
  /// calibration_epochs solves); 0 keeps source order.
  int calibration_epochs = 2;
  /// Consult (and feed) the process-wide core::TuningCache so later
  /// plans over the same (pattern fingerprint, threads) skip the race
  /// entirely — the BatchDriver / timestep-server refresh loops rebuild
  /// plans per pattern and must not re-explore every time.
  bool use_tuning_cache = true;
  /// Stall watchdog budget in spin rounds per flag/barrier wait; 0
  /// (default) disables the watchdog — the bitwise and perf gates run
  /// with it off. Past the budget a wait raises rt::StallError with
  /// diagnostics (row, awaited offset, epoch, rounds, site), the fault is
  /// contained like any other worker exception, and the plan is poisoned.
  std::uint64_t stall_budget = 0;
  /// Lane-kernel table (DESIGN.md §14). kVector (default) runs the
  /// process-wide dispatched table; kScalar pins the reference table,
  /// which bench/kernel_micro times the vector table against. Both are
  /// bitwise identical on the lane paths (multi-RHS strips).
  kernels::KernelChoice kernel = kernels::KernelChoice::kVector;
};

/// Persistent execution plan for the preconditioner solve z = U⁻¹ (L⁻¹
/// rhs) over an L/U factor pair. Every solve call runs with zero per-call
/// heap allocation and resets synchronization state in O(1); results are
/// bitwise identical to trisolve_lower_seq then trisolve_upper_seq under
/// every strategy.
class TrisolvePlan {
 public:
  /// A plan over an L/U factor pair (e.g. IluFactors::l / ::u). L must
  /// be lower triangular with the diagonal last in each sorted row, U
  /// upper triangular with the diagonal first.
  TrisolvePlan(rt::ThreadPool& pool, const Csr& l, const Csr& u,
               const PlanOptions& opts = {});

  // The pre-bound region functors capture `this`.
  TrisolvePlan(const TrisolvePlan&) = delete;
  TrisolvePlan& operator=(const TrisolvePlan&) = delete;

  /// z = U⁻¹ (L⁻¹ rhs): one fused preconditioner application in a single
  /// parallel region — the forward solve flows into the backward solve
  /// without returning to the pool. At most one pool fork/join (zero for
  /// kSerial), no allocation.
  core::DoacrossStats solve(std::span<const double> rhs,
                            std::span<double> z);

  /// Strip solve: X = U⁻¹ (L⁻¹ B) for k lanes in ONE pool dispatch (zero
  /// for kSerial). B and X are row-major n-by-k strips (lane c of row i
  /// at i*k + c); every lane's result is bitwise identical to solve() on
  /// that lane. One wavefront-interleaved pass per factor carries all k
  /// lanes (DESIGN.md §8): the forward solve reads row i of B and solves
  /// into row i of X, the backward solve updates X in place, so X may
  /// alias B. A one-lane strip IS a vector: k == 1 runs solve()'s rows.
  ///
  /// Threading: on a settled() serial plan, solve_strip is reentrant —
  /// any number of threads may each solve their own strips at once, for
  /// any k. The serial strip walk reads its strips and k from its
  /// arguments and writes only the caller's x (k == 1 solves in place in
  /// x, not through the plan's tmp_); solves() and batch_columns() count
  /// exactly; a fault in one caller poisons the plan, and the others'
  /// later calls throw rt::PlanPoisonedError. Every other plan state
  /// keeps the one-caller rule — and so does a k == 1 call outside any
  /// pool region while the order race explores: it is the run that
  /// feeds the race (DESIGN.md §13).
  core::DoacrossStats solve_strip(std::span<const double> b,
                                  std::span<double> x, index_t k);

  /// Column-major batched solve: X[c] = U⁻¹ (L⁻¹ B[c]) for k right-hand
  /// sides with column c contiguous at data() + c * rows(). Transposes B
  /// into the plan's n-by-k strip, runs solve_strip in place and
  /// transposes back; each column is bitwise identical to solve() on
  /// that column. The strip grows on the first call with a larger k —
  /// pre-size with reserve_batch for a zero-allocation hot path. A
  /// k == 1 batch IS solve(): no strip, no allocation.
  core::DoacrossStats solve_batch(std::span<const double> b,
                                  std::span<double> x, index_t k);

  /// Pre-size the n-by-max_k strip of solve_batch so subsequent calls
  /// with k <= max_k allocate nothing.
  void reserve_batch(index_t max_k);

  /// Value-only plan refresh for time-stepping workloads (DESIGN.md §11):
  /// given factors with the SAME pattern as the plan's (e.g. the same
  /// IluFactors re-filled by FactorPlan::factorize, or a fresh pair),
  /// rebind the plan to `f` and re-stream only the VALUES into the
  /// existing packed slabs — schedules, flag tables, reorderings and the
  /// slab layout (including its first-touch page placement) are pattern
  /// state and survive untouched. Costs one pool dispatch for a parallel
  /// packed plan and zero otherwise (kCsrView swaps pointers for free;
  /// serial plans repack inline), allocates nothing, and leaves every
  /// subsequent solve bitwise identical to a full plan rebuild over `f`.
  /// Throws std::invalid_argument if `f`'s pattern differs from the
  /// plan's.
  void refresh_values(const IluFactors& f);

  /// Completed refresh_values() calls.
  std::uint64_t refreshes() const noexcept { return refreshes_; }

  /// Record the numeric refactorization that produced the plan's current
  /// values (telemetry only — shows up as PlanTelemetry::factor_ms in
  /// BatchReport and the serving examples).
  void record_factorization(double factor_ms) noexcept {
    telemetry_.factor_ms = factor_ms;
  }

  index_t rows() const noexcept { return n_; }
  unsigned nthreads() const noexcept { return core_.nthreads(); }
  /// The resolved factor layout (kCsrView when nothing was packed).
  PlanLayout layout() const noexcept { return telemetry_.layout; }
  /// Plan-owned packed stream bytes (0 under kCsrView).
  std::size_t packed_bytes() const noexcept { return telemetry_.packed_bytes; }
  /// The resolved execution strategy (never kAuto; the current race
  /// candidate while calibrating()).
  ExecutionStrategy strategy() const noexcept { return telemetry_.strategy; }
  /// True while a kAuto calibration race is still exploring — the next
  /// solves time the remaining candidates before the plan locks in.
  /// Every exploration solve is bitwise identical to the final plan.
  bool calibrating() const noexcept { return core_.calibrating(); }
  /// True while a serial plan's order race explores: the next fused
  /// single-RHS solves on the calling thread time source order against
  /// the wavefront walk (DESIGN.md §13). It does not hold back settled().
  bool order_racing() const noexcept { return core_.order_racing(); }
  /// No strategy race left to run and not poisoned: strategy and layout
  /// are final (core::DagPlan::settled).
  bool settled() const noexcept { return core_.settled(); }
  /// Chosen strategy, rationale and the measured structure behind it.
  const PlanTelemetry& telemetry() const noexcept { return telemetry_; }
  /// Completed solve calls (one per pool dispatch; a whole strip counts
  /// once). Exact under concurrent solve_strip callers.
  std::uint64_t solves() const noexcept {
    return solves_.load(std::memory_order_relaxed);
  }
  /// Total right-hand sides completed through solve_strip / solve_batch.
  std::uint64_t batch_columns() const noexcept {
    return batch_columns_.load(std::memory_order_relaxed);
  }
  std::uint32_t lower_epoch() const noexcept {
    return core_.dag(kLower).ready.epoch();
  }

  /// True once a fault escaped a worker inside this plan's parallel
  /// region. A poisoned plan's flag tables, cursors and barrier may be
  /// mid-episode, so every subsequent solve or refresh_values call throws
  /// rt::PlanPoisonedError — rebuild the plan (or let the solve layer
  /// degrade to the sequential trisolves, see solve/precond.hpp).
  bool poisoned() const noexcept { return core_.poisoned(); }
  /// Wire a test-only fault source into the executors (nullptr disarms).
  void set_fault_injector(rt::FaultInjector* injector) noexcept {
    core_.set_fault_injector(injector);
  }

  /// Build-time reorderings (nullptr when nothing walks them — a serial
  /// plan keeps them only while its order race runs or once the
  /// wavefront walk won it).
  const core::Reordering* lower_reordering() const noexcept {
    return core_.dag(kLower).order.get();
  }
  const core::Reordering* upper_reordering() const noexcept {
    return core_.dag(kUpper).order.get();
  }

 private:
  // The core's DAG instances: L, then U.
  static constexpr unsigned kLower = 0;
  static constexpr unsigned kUpper = 1;

  /// Run one factor's solve (L, or U when `upper`) under the plan's
  /// current strategy: pick the row source the strategy and layout read
  /// (DESIGN.md §10) and hand `row(src)` — the row body over it — to the
  /// core's walk. kLook runs the level walk with the next-record
  /// lookahead over the k-lane strip `tp`.
  template <bool kLook, class MakeRow>
  void walk(bool upper, unsigned tid, unsigned nthreads, MakeRow&& row,
            const double* tp = nullptr, index_t k = 0);
  /// Stream both factors into execution-ordered slabs (PlanLayout::
  /// kPacked): lay the slabs out, then run ONE pool dispatch in which
  /// each thread packs — first-touches — its own slab for both factors.
  void build_packed();
  /// One core dispatch plus the per-run bookkeeping: solve count and the
  /// races (packing the winner when the strategy race locks in).
  /// `order` marks the fused single-RHS solve, the run that feeds the
  /// order race.
  core::DoacrossStats run(const rt::ThreadPool::RegionFn& region, bool order,
                          index_t columns = 1);
  /// The fused single-RHS solve z = U⁻¹ L⁻¹ rhs through tmp_ (solve()).
  core::DoacrossStats run_fused(const double* rhs, double* z);
  /// A one-lane strip: run_fused, counted as a batch column.
  core::DoacrossStats run_column(const double* b, double* x);
  /// The k-lane strip region over strip_in_ / strip_.
  core::DoacrossStats run_strip(index_t k);
  /// The one serial strip walk: X = U⁻¹ (L⁻¹ B) for k lanes on the
  /// calling thread, B = `in` (nullptr: in place in `x`). Reads nothing
  /// per call through members, so a settled plan runs it reentrantly;
  /// `tid` names the caller to the fault injector.
  void serial_strip(const double* in, double* x, index_t k, unsigned tid);

  const Csr* l_;
  const Csr* u_;
  PlanOptions opts_;
  index_t n_;
  PlanTelemetry telemetry_;
  core::DagPlan core_;  // writes telemetry_'s decision fields
  const kernels::LaneOps* lanes_;  // the lane-kernel table opts_ picked

  PackedFactorStream packed_l_, packed_u_;
  std::vector<double, rt::CacheAlignedAllocator<double>> tmp_;

  // Per-call vector endpoints of the fused solve (rhs in, z out; the
  // forward solve lands in tmp_), published to the pre-bound region
  // functor through members so the std::function is constructed exactly
  // once (a capturing lambda wider than the small-buffer would otherwise
  // allocate on every call).
  const double* vec_rhs_ = nullptr;
  double* vec_z_ = nullptr;

  // Strip state, published to the pre-bound strip region through members
  // like the single-RHS endpoints: the input strip (nullptr when solving
  // in place), the strip solved in, and its lane count. batch_tmp_ is
  // solve_batch's own strip.
  index_t strip_k_ = 0;
  const double* strip_in_ = nullptr;
  double* strip_ = nullptr;
  std::vector<double, rt::CacheAlignedAllocator<double>> batch_tmp_;

  rt::ThreadPool::RegionFn fused_region_, strip_region_, refresh_region_;
  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> batch_columns_{0};
  std::uint64_t refreshes_ = 0;
};

}  // namespace pdx::sparse
