#include "sparse/trisolve_plan.hpp"

#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "runtime/schedule.hpp"
#include "sparse/levels.hpp"
#include "sparse/trisolve.hpp"

namespace pdx::sparse {

namespace {

void check_factor(const Csr& m, const char* what) {
  if (m.rows != m.cols) {
    throw std::invalid_argument(std::string("TrisolvePlan: ") + what +
                                " factor is not square");
  }
}

// --- row sources -----------------------------------------------------
//
// The layout-generic kernels read rows only through src.at(position);
// these adapters supply the two layouts. The CSR views reproduce the
// historical access path exactly (position -> row via the order array,
// row -> entries via row_ptr); the packed sources walk the plan-owned
// execution-ordered record streams of DESIGN.md §10.

/// kCsrView, lower factor: diagonal last in the sorted row. A null
/// order means position == row (source order).
struct CsrLowerSrc {
  const Csr* m;
  const index_t* order;
  PackedRow at(index_t k) const noexcept {
    const index_t i = order ? order[k] : k;
    const index_t b = m->row_begin(i);
    const index_t e = m->row_end(i) - 1;  // diagonal last
    return {i, e - b, m->val[static_cast<std::size_t>(e)],
            m->idx.data() + b, m->val.data() + b};
  }
};

/// kCsrView, upper factor: diagonal first. A null order means the
/// backward solve's natural order, position k == row n-1-k.
struct CsrUpperSrc {
  const Csr* m;
  const index_t* order;
  index_t n;
  PackedRow at(index_t k) const noexcept {
    const index_t i = order ? order[k] : n - 1 - k;
    const index_t b = m->row_begin(i);  // diagonal first
    return {i, m->row_end(i) - b - 1, m->val[static_cast<std::size_t>(b)],
            m->idx.data() + b + 1, m->val.data() + b + 1};
  }
};

CsrLowerSrc csr_lower(const Csr& m, const core::Reordering* ord) noexcept {
  return {&m, ord ? ord->order.data() : nullptr};
}

CsrUpperSrc csr_upper(const Csr& m, const core::Reordering* ord,
                      index_t n) noexcept {
  return {&m, ord ? ord->order.data() : nullptr, n};
}

/// kPacked, statically owned slab: positions arrive consecutively, so
/// the position argument is implicit in the cursor — the pure linear
/// walk (serial, level-barrier).
struct PackedWalkSrc {
  PackedFactorStream::Cursor c;
  PackedRow at(index_t) noexcept { return c.next(); }
};

/// kPacked, dynamically claimed positions (the doacross schedules): one
/// predictable pointer load into the position index, then the record is
/// a single contiguous read. Consecutive positions of a claimed chunk
/// are adjacent records, so the walk stays linear per chunk.
struct PackedSeekSrc {
  const PackedFactorStream* s;
  PackedRow at(index_t k) const noexcept { return s->at(k); }
};

// --- multi-RHS lane arithmetic ----------------------------------------
//
// The k columns of the interleaved strip are the SIMD lanes: one vector
// op retires k right-hand sides per nonzero, and because column c's
// element never mixes with column c''s, the vector forms are bitwise
// identical to the scalar per-column arithmetic (DESIGN.md §14). Narrow
// batches (k < kLaneMin) and machine-emulation runs keep the inline
// scalar loops — same bits, no indirect-call overhead.

inline void lane_update(const kernels::LaneOps* lanes, double* ti,
                        const double* tc, double a, index_t k,
                        int work_reps) noexcept {
  if (work_reps > 0) {
    for (index_t c = 0; c < k; ++c) {
      ti[c] -= a * tc[c];
      ti[c] = machine_emulation_work(ti[c], work_reps);
    }
  } else if (k >= kernels::kLaneMin) {
    lanes->axpy(ti, tc, a, k);
  } else {
    for (index_t c = 0; c < k; ++c) ti[c] -= a * tc[c];
  }
}

inline void lane_div(const kernels::LaneOps* lanes, double* ti, double d,
                     index_t k) noexcept {
  if (k >= kernels::kLaneMin) {
    lanes->div_inplace(ti, d, k);
  } else {
    for (index_t c = 0; c < k; ++c) ti[c] /= d;
  }
}

/// Prefetch the strip row of the NEXT dependence while the lane kernel
/// computes on the current one: the gathered x-entries of the packed
/// dot, one dependence ahead (DESIGN.md §14 discusses the distance).
inline void prefetch_next_dep(const PackedRow& r, index_t j,
                              const double* tp, index_t k) noexcept {
  if (j + 1 < r.cnt) {
    kernels::prefetch_read(tp + r.cols[j + 1] * k);
  }
}

/// Every cache line of one k-wide strip row (k=16 spans two), gated on
/// the vector table: the scalar table is the pre-kernel-layer reference
/// and the kernel race times it as exactly that — SIMD and the prefetch
/// schedule win or lose together (DESIGN.md §14).
inline void prefetch_strip_row(const kernels::LaneOps* lanes,
                               const double* tp, index_t col,
                               index_t k) noexcept {
  if (lanes->isa == kernels::KernelIsa::kScalar) return;
  const double* p = tp + col * k;
  for (index_t o = 0; o < k; o += 8) kernels::prefetch_read(p + o);
}

/// The NEXT record's gathered strip rows, issued while the lane kernels
/// chew the current record — one full record of distance, enough to
/// cover a last-level-cache hit on the spilled factors the packed
/// layout targets. Only the walk-order executors (serial, level) use
/// this: their lookahead row's dependences are all final, so the
/// prefetch never tugs a line another thread is writing.
inline void prefetch_row_deps(const PackedRow& r, const double* tp,
                              index_t k) noexcept {
  for (index_t j = 0; j < r.cnt; ++j) {
    const double* p = tp + r.cols[j] * k;
    for (index_t o = 0; o < k; o += 8) kernels::prefetch_read(p + o);
  }
}

/// The lookahead pipeline (parse the next record, prefetch its strip
/// rows, then compute the current one) only pays when the lane kernels
/// are actually in play: wide batches on a vector table. Narrow batches,
/// machine-emulation runs, and the scalar table keep the plain walk —
/// the scalar candidate the kernel race times IS the pre-kernel-layer
/// executor, prefetch-free.
inline bool want_lookahead(const kernels::LaneOps* lanes, index_t k,
                           int work_reps) noexcept {
  return lanes->isa != kernels::KernelIsa::kScalar &&
         k >= kernels::kLaneMin && work_reps == 0;
}

/// One record's WHOLE dependence list against the strip. Wide un-emulated
/// batches take the fused row kernel — one indirect call per row,
/// accumulators register-resident across the dependence list; everything
/// else keeps the per-dependence loops. All callers retire their waits
/// BEFORE this runs (the fused kernel reads every dependence's strip
/// row). Bitwise equal either way: per column the j-ordered mul+sub
/// sequence is identical.
inline void lane_row_update(const kernels::LaneOps* lanes, double* ti,
                            const double* tp, const PackedRow& r, index_t k,
                            int work_reps) noexcept {
  if (work_reps == 0 && k >= kernels::kLaneMin) {
    lanes->row_axpy(ti, r.vals, r.cols, r.cnt, tp, k);
    return;
  }
  for (index_t j = 0; j < r.cnt; ++j) {
    prefetch_next_dep(r, j, tp, k);
    lane_update(lanes, ti, tp + r.cols[j] * k, r.vals[j], k, work_reps);
  }
}

}  // namespace

rt::ThreadPool::RegionFn TrisolvePlan::contained(
    rt::ThreadPool::RegionFn raw) {
  return [this, raw = std::move(raw)](unsigned tid, unsigned nthreads) {
    try {
      raw(tid, nthreads);
    } catch (rt::WorkerAbort&) {
      // A peer faulted first; this thread drained its waits and joins.
    } catch (...) {
      latch_.raise(std::current_exception());
    }
  };
}

bool TrisolvePlan::needs_reordering() const noexcept {
  // Both factors build (or skip) their doconsider analyses by the same
  // rule: level-barrier executes the levels themselves; doacross uses
  // the order only when asked to. A calibration race keeps both orders
  // alive — the level-barrier and doacross candidates need them; the
  // winner drops what it does not use at lock-in.
  return calibrating_ ||
         telemetry_.strategy == ExecutionStrategy::kLevelBarrier ||
         (telemetry_.strategy == ExecutionStrategy::kDoacross &&
          opts_.reorder);
}

void TrisolvePlan::set_strategy_state(ExecutionStrategy s) {
  telemetry_.strategy = s;
  if (s == ExecutionStrategy::kDoacross &&
      opts_.strategy == ExecutionStrategy::kAuto) {
    // The advisor's canonical flag-based configuration: dynamic
    // single-iteration issue in doconsider order. Fixing it here keeps
    // raced doacross epochs and cache-hit plans configured identically.
    opts_.schedule = rt::Schedule::dynamic(1);
    opts_.reorder = true;
  }
  guard_ = rt::WaitGuard{&latch_, opts_.stall_budget, core::to_string(s)};
}

void TrisolvePlan::rebind_regions() {
  bind_lower_region();
  if (u_) bind_upper_regions();
}

void TrisolvePlan::set_lanes(const kernels::LaneOps* ops) noexcept {
  lanes_ = ops;
  // The ulp dot is a horizontal reduction only the vector tables
  // implement differently; forced-scalar plans stay bitwise even when
  // the caller set a tolerance, and the machine-emulation knob pins the
  // scalar per-term loop it instruments.
  ulp_dot_ = opts_.ulp_tolerance > 0.0 && opts_.work_reps == 0 &&
             ops->isa != kernels::KernelIsa::kScalar;
}

void TrisolvePlan::resolve_kernel() noexcept {
  telemetry_.isa = kernels::dispatched_isa();
  const bool have_vector = telemetry_.isa != kernels::KernelIsa::kScalar;
  switch (opts_.kernel) {
    case kernels::KernelChoice::kScalar:
      set_lanes(&kernels::scalar_ops());
      telemetry_.kernel = kernels::KernelChoice::kScalar;
      return;
    case kernels::KernelChoice::kVector:
      set_lanes(&kernels::dispatched_ops());
      telemetry_.kernel = have_vector ? kernels::KernelChoice::kVector
                                      : kernels::KernelChoice::kScalar;
      return;
    case kernels::KernelChoice::kAuto:
      set_lanes(&kernels::dispatched_ops());
      telemetry_.kernel = have_vector ? kernels::KernelChoice::kVector
                                      : kernels::KernelChoice::kScalar;
      // The strategy race times strategies only (its budget and
      // winner bookkeeping are contractual — DESIGN.md §13); the kernel
      // dimension races separately on the dispatches that actually run
      // lane kernels, which only begin once strategy exploration is
      // done. Same epoch budget per choice as the strategy race.
      if (have_vector && opts_.calibration_epochs > 0 && n_ > 0) {
        kernel_race_.arm(opts_.calibration_epochs);
      }
      return;
  }
}

void TrisolvePlan::note_kernel_epoch(double seconds, index_t k) noexcept {
  // Normalize per column so epochs of different batch widths compare.
  const double us = seconds * 1e6 / static_cast<double>(k);
  if (kernel_race_.note_epoch(us)) {
    set_lanes(kernel_race_.winner() == kernels::KernelChoice::kScalar
                  ? &kernels::scalar_ops()
                  : &kernels::dispatched_ops());
    telemetry_.kernel = kernel_race_.winner();
  }
  telemetry_.kernel_race = kernel_race_.state();
}

void TrisolvePlan::resolve_strategy() {
  telemetry_.requested = opts_.strategy;
  telemetry_.procs = nth_;
  if (opts_.strategy != ExecutionStrategy::kAuto) {
    telemetry_.strategy = opts_.strategy;
    telemetry_.rationale = "strategy fixed by caller";
    return;
  }
  // The inspector pass of the strategy decision: the doconsider
  // analysis (levels, widths) plus an O(nnz) distance scan. The
  // reordering is kept — if the plan lands on doacross or
  // level-barrier it is the execution order.
  l_order_ =
      std::make_unique<core::Reordering>(lower_solve_reordering(*l_));
  telemetry_.structure = measure_lower_solve(*l_, *l_order_);
  core::ScheduleAdvice advice =
      core::advise_schedule(telemetry_.structure, nth_);
  // The heuristic pick is the opening bid; with a viable race below it
  // only decides which strategy explores first.
  telemetry_.strategy = advice.strategy;
  telemetry_.rationale = advice.rationale;
  if (advice.strategy == ExecutionStrategy::kDoacross) {
    opts_.schedule = advice.schedule;
    opts_.reorder = advice.use_reordering;
  }
  // Empirical calibration (DESIGN.md §13). The heuristic ladder sees DAG
  // shape, never synchronization cost on the actual machine, and the
  // strategy baselines prove it can mispick by orders of magnitude. A
  // race is viable whenever more than one strategy is plausible — with
  // parallel width and a budget — because all executors are bitwise
  // identical: the first solves time each candidate invisibly.
  const bool can_calibrate =
      opts_.calibration_epochs > 0 && nth_ > 1 && n_ > 0;
  if (!can_calibrate) return;
  if (opts_.use_tuning_cache) {
    tuning_key_ = core::make_tuning_key(telemetry_.structure, nth_,
                                        /*factor=*/false);
    have_tuning_key_ = true;
    ExecutionStrategy cached;
    if (core::tuning_cache().lookup(tuning_key_, cached)) {
      set_strategy_state(cached);
      telemetry_.rationale =
          std::string("tuning cache hit: ") + core::to_string(cached) +
          " measured fastest earlier for this (pattern, threads)";
      telemetry_.race.calibrated = true;
      telemetry_.race.cache_hit = true;
      return;
    }
  }
  calibrating_ = true;
  candidates_ = {telemetry_.strategy};
  for (const ExecutionStrategy s :
       {ExecutionStrategy::kSerial, ExecutionStrategy::kDoacross,
        ExecutionStrategy::kLevelBarrier}) {
    if (s != candidates_.front()) candidates_.push_back(s);
  }
  telemetry_.race.timings.resize(candidates_.size());
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    telemetry_.race.timings[i].strategy = candidates_[i];
  }
  set_strategy_state(candidates_.front());
  telemetry_.rationale +=
      " — calibrating: racing every strategy on the first live solves";
}

void TrisolvePlan::note_calibration_epoch(double seconds) {
  core::StrategyTiming& t = telemetry_.race.timings[cand_idx_];
  const double us = seconds * 1e6;
  if (t.epochs == 0 || us < t.best_us) t.best_us = us;
  ++t.epochs;
  ++telemetry_.race.exploration_epochs;
  if (++cand_epoch_ < opts_.calibration_epochs) return;
  cand_epoch_ = 0;
  if (++cand_idx_ < candidates_.size()) {
    set_strategy_state(candidates_[cand_idx_]);
    rebind_regions();
    return;
  }
  finish_calibration();
}

void TrisolvePlan::finish_calibration() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < telemetry_.race.timings.size(); ++i) {
    if (telemetry_.race.timings[i].best_us <
        telemetry_.race.timings[best].best_us) {
      best = i;
    }
  }
  const ExecutionStrategy winner = candidates_[best];
  calibrating_ = false;
  set_strategy_state(winner);
  telemetry_.race.calibrated = true;
  telemetry_.rationale =
      std::string("calibrated: ") + core::to_string(winner) +
      " measured fastest (" +
      std::to_string(telemetry_.race.timings[best].best_us) +
      " us/solve over " + std::to_string(telemetry_.race.exploration_epochs) +
      " exploration solves)";
  if (have_tuning_key_) core::tuning_cache().store(tuning_key_, winner);
  // Lock-in: drop the orders the winner does not read, resolve the
  // deferred layout (pack the winner's execution order), and rebind the
  // regions to the winner's kernels.
  if (!needs_reordering()) {
    l_order_.reset();
    u_order_.reset();
  }
  build_packed();
  rebind_regions();
}

void TrisolvePlan::build_packed() {
  // Packed slab sequences are strategy-specific, so a calibrating plan
  // defers packing to lock-in and explores through CSR-view sources.
  if (calibrating_ || n_ == 0) return;
  PlanLayout want = opts_.layout;
  if (want == PlanLayout::kAuto) {
    // A serial plan walks each factor once per solve with no cross-thread
    // sharing to localize; the packed duplication measurably loses there
    // (layout_speedup 0.66–0.96 in BENCH_strategy), so only a caller
    // pinning kPacked pays for it.
    want = telemetry_.strategy == ExecutionStrategy::kSerial
               ? PlanLayout::kCsrView
               : PlanLayout::kPacked;
  }
  if (want != PlanLayout::kPacked) return;
  const unsigned width = nth_ == 0 ? 1 : nth_;
  const unsigned slabs =
      telemetry_.strategy == ExecutionStrategy::kSerial ? 1 : width;
  const index_t* lord = l_order_ ? l_order_->order.data() : nullptr;
  const index_t* uord = u_order_ ? u_order_->order.data() : nullptr;

  // Per-slab row sequences: the exact order each thread's kernel walks.
  std::vector<std::vector<index_t>> lseq, useq;
  bool position_index = false;
  switch (telemetry_.strategy) {
    case ExecutionStrategy::kSerial: {
      lseq.resize(1);
      lseq[0].resize(static_cast<std::size_t>(n_));
      std::iota(lseq[0].begin(), lseq[0].end(), index_t{0});
      if (u_) {
        useq.resize(1);
        useq[0].reserve(static_cast<std::size_t>(n_));
        for (index_t i = n_ - 1; i >= 0; --i) useq[0].push_back(i);
      }
      break;
    }
    case ExecutionStrategy::kLevelBarrier: {
      lseq = level_schedule_sequences(*l_order_, slabs);
      if (u_) useq = level_schedule_sequences(*u_order_, slabs);
      break;
    }
    case ExecutionStrategy::kDoacross: {
      // Any schedule may claim any position at run time, so the stream
      // carries a position index; the slab split mirrors the static-
      // block assignment, which is also where dynamic chunks of a
      // steady-state solve tend to land.
      position_index = true;
      lseq.resize(slabs);
      if (u_) useq.resize(slabs);
      for (unsigned t = 0; t < slabs; ++t) {
        const rt::IterRange r = rt::static_block_range(n_, t, slabs);
        lseq[t].reserve(static_cast<std::size_t>(r.size()));
        if (u_) useq[t].reserve(static_cast<std::size_t>(r.size()));
        for (index_t pos = r.begin; pos < r.end; ++pos) {
          lseq[t].push_back(lord ? lord[pos] : pos);
          if (u_) useq[t].push_back(uord ? uord[pos] : n_ - 1 - pos);
        }
      }
      break;
    }
    case ExecutionStrategy::kAuto:
      return;  // unreachable: resolve_strategy() never leaves kAuto
  }

  packed_l_.prepare(*l_, /*diag_first=*/false, std::move(lseq),
                    position_index);
  if (u_) {
    packed_u_.prepare(*u_, /*diag_first=*/true, std::move(useq),
                      position_index);
  }
  // First-touch packing: every slab is written — page-placed — by the
  // thread that will execute it, in ONE pool dispatch covering both
  // factors. Serial plans pack inline: the calling thread IS the
  // executor, and waking the pool would first-touch nothing useful.
  if (slabs <= 1) {
    packed_l_.pack(0);
    if (u_) packed_u_.pack(0);
  } else {
    pool_->parallel_region(nth_, [this](unsigned tid, unsigned) {
      packed_l_.pack(tid);
      if (u_) packed_u_.pack(tid);
    });
  }
  packed_l_.finish_build();
  if (u_) packed_u_.finish_build();
  telemetry_.layout = PlanLayout::kPacked;
  telemetry_.packed_bytes = packed_l_.bytes() + packed_u_.bytes();
  // The value-refresh region (refresh_values) is bound once, like the
  // solve regions: each thread re-streams the values of its own slabs,
  // on the pages it first-touched at build.
  if (slabs > 1) {
    refresh_region_ = [this](unsigned tid, unsigned) {
      packed_l_.repack_values(*l_, tid);
      if (u_) packed_u_.repack_values(*u_, tid);
    };
  }
}

void TrisolvePlan::bind_lower_region() {
  // Region functors are bound once, here; per-call inputs travel through
  // the lo_/up_ pointer members. This is what makes solve_* allocation
  // free: a fresh capturing lambda would not fit std::function's small
  // buffer and would heap-allocate on every call. The layout branch runs
  // once per kernel invocation, not per row.
  switch (telemetry_.strategy) {
    case ExecutionStrategy::kDoacross:
      lower_region_ = [this](unsigned tid, unsigned nthreads) {
        std::uint64_t eps = 0, rds = 0;
        if (packed_l_.packed()) {
          lower_flags_k(PackedSeekSrc{&packed_l_}, lo_rhs_, lo_y_, tid,
                        nthreads, eps, rds);
        } else {
          lower_flags_k(csr_lower(*l_, l_order_.get()), lo_rhs_, lo_y_, tid,
                        nthreads, eps, rds);
        }
        episodes_[tid].value = eps;
        rounds_[tid].value = rds;
      };
      break;
    case ExecutionStrategy::kLevelBarrier:
      lower_region_ = [this](unsigned tid, unsigned nthreads) {
        if (packed_l_.packed()) {
          lower_levels_k(PackedWalkSrc{packed_l_.cursor(tid)}, lo_rhs_,
                         lo_y_, tid, nthreads);
        } else {
          lower_levels_k(csr_lower(*l_, l_order_.get()), lo_rhs_, lo_y_,
                         tid, nthreads);
        }
        episodes_[tid].value = 0;
        rounds_[tid].value = 0;
      };
      break;
    case ExecutionStrategy::kSerial:
      lower_region_ = [this](unsigned, unsigned) {
        if (packed_l_.packed()) {
          serial_lower_k(PackedWalkSrc{packed_l_.cursor(0)}, lo_rhs_, lo_y_);
        } else {
          serial_lower_k(csr_lower(*l_, nullptr), lo_rhs_, lo_y_);
        }
      };
      break;
    case ExecutionStrategy::kAuto:
      break;  // unreachable: resolve_strategy() never leaves kAuto
  }
  lower_region_ = contained(std::move(lower_region_));
}

void TrisolvePlan::bind_upper_regions() {
  switch (telemetry_.strategy) {
    case ExecutionStrategy::kDoacross:
      upper_region_ = [this](unsigned tid, unsigned nthreads) {
        std::uint64_t eps = 0, rds = 0;
        if (packed_u_.packed()) {
          upper_flags_k(PackedSeekSrc{&packed_u_}, up_rhs_, up_y_, tid,
                        nthreads, eps, rds);
        } else {
          upper_flags_k(csr_upper(*u_, u_order_.get(), n_), up_rhs_, up_y_,
                        tid, nthreads, eps, rds);
        }
        episodes_[tid].value = eps;
        rounds_[tid].value = rds;
      };
      fused_region_ = [this](unsigned tid, unsigned nthreads) {
        std::uint64_t eps = 0, rds = 0;
        if (packed_l_.packed()) {
          lower_flags_k(PackedSeekSrc{&packed_l_}, lo_rhs_, lo_y_, tid,
                        nthreads, eps, rds);
          // The one synchronization point of a fused preconditioner
          // application: every tmp_ element is published before any
          // thread starts consuming it in the backward solve. The
          // busy-wait flags handle everything else on both sides.
          barrier_.arrive_and_wait();
          upper_flags_k(PackedSeekSrc{&packed_u_}, up_rhs_, up_y_, tid,
                        nthreads, eps, rds);
        } else {
          lower_flags_k(csr_lower(*l_, l_order_.get()), lo_rhs_, lo_y_, tid,
                        nthreads, eps, rds);
          barrier_.arrive_and_wait();
          upper_flags_k(csr_upper(*u_, u_order_.get(), n_), up_rhs_, up_y_,
                        tid, nthreads, eps, rds);
        }
        episodes_[tid].value = eps;
        rounds_[tid].value = rds;
      };
      batch_region_ = [this](unsigned tid, unsigned nthreads) {
        // One doacross pass per factor; every row carries all k columns.
        std::uint64_t eps = 0, rds = 0;
        if (packed_l_.packed()) {
          lower_flags_multi_k(PackedSeekSrc{&packed_l_}, tid, nthreads, eps,
                              rds);
          barrier_.arrive_and_wait();
          upper_flags_multi_k(PackedSeekSrc{&packed_u_}, tid, nthreads, eps,
                              rds);
        } else {
          lower_flags_multi_k(csr_lower(*l_, l_order_.get()), tid, nthreads,
                              eps, rds);
          barrier_.arrive_and_wait();
          upper_flags_multi_k(csr_upper(*u_, u_order_.get(), n_), tid,
                              nthreads, eps, rds);
        }
        episodes_[tid].value = eps;
        rounds_[tid].value = rds;
      };
      break;
    case ExecutionStrategy::kLevelBarrier:
      // No flags anywhere: the trailing barrier of each level loop is
      // also the L→U handoff, so neither the fused nor the batched region
      // needs any extra synchronization.
      upper_region_ = [this](unsigned tid, unsigned nthreads) {
        if (packed_u_.packed()) {
          upper_levels_k(PackedWalkSrc{packed_u_.cursor(tid)}, up_rhs_,
                         up_y_, tid, nthreads);
        } else {
          upper_levels_k(csr_upper(*u_, u_order_.get(), n_), up_rhs_, up_y_,
                         tid, nthreads);
        }
        episodes_[tid].value = 0;
        rounds_[tid].value = 0;
      };
      fused_region_ = [this](unsigned tid, unsigned nthreads) {
        if (packed_l_.packed()) {
          lower_levels_k(PackedWalkSrc{packed_l_.cursor(tid)}, lo_rhs_,
                         lo_y_, tid, nthreads);
          upper_levels_k(PackedWalkSrc{packed_u_.cursor(tid)}, up_rhs_,
                         up_y_, tid, nthreads);
        } else {
          lower_levels_k(csr_lower(*l_, l_order_.get()), lo_rhs_, lo_y_,
                         tid, nthreads);
          upper_levels_k(csr_upper(*u_, u_order_.get(), n_), up_rhs_, up_y_,
                         tid, nthreads);
        }
        episodes_[tid].value = 0;
        rounds_[tid].value = 0;
      };
      batch_region_ = [this](unsigned tid, unsigned nthreads) {
        if (packed_l_.packed()) {
          lower_levels_multi_k(PackedWalkSrc{packed_l_.cursor(tid)}, tid,
                               nthreads);
          upper_levels_multi_k(PackedWalkSrc{packed_u_.cursor(tid)}, tid,
                               nthreads);
        } else {
          lower_levels_multi_k(csr_lower(*l_, l_order_.get()), tid, nthreads);
          upper_levels_multi_k(csr_upper(*u_, u_order_.get(), n_), tid,
                               nthreads);
        }
        episodes_[tid].value = 0;
        rounds_[tid].value = 0;
      };
      break;
    case ExecutionStrategy::kSerial:
      // These run inline on the calling thread (dispatch() never enters
      // the pool for a serial plan); tid/nthreads are (0, 1).
      upper_region_ = [this](unsigned, unsigned) {
        if (packed_u_.packed()) {
          serial_upper_k(PackedWalkSrc{packed_u_.cursor(0)}, up_rhs_, up_y_);
        } else {
          serial_upper_k(csr_upper(*u_, nullptr, n_), up_rhs_, up_y_);
        }
      };
      fused_region_ = [this](unsigned, unsigned) {
        if (packed_l_.packed()) {
          serial_lower_k(PackedWalkSrc{packed_l_.cursor(0)}, lo_rhs_, lo_y_);
          serial_upper_k(PackedWalkSrc{packed_u_.cursor(0)}, up_rhs_, up_y_);
        } else {
          serial_lower_k(csr_lower(*l_, nullptr), lo_rhs_, lo_y_);
          serial_upper_k(csr_upper(*u_, nullptr, n_), up_rhs_, up_y_);
        }
      };
      batch_region_ = [this](unsigned, unsigned) {
        // One pass per factor with all k columns in the strip: even with
        // nothing to overlap across threads, each nonzero retires k
        // right-hand sides through one lane kernel.
        if (packed_l_.packed()) {
          serial_lower_multi_k(PackedWalkSrc{packed_l_.cursor(0)});
          serial_upper_multi_k(PackedWalkSrc{packed_u_.cursor(0)});
        } else {
          serial_lower_multi_k(csr_lower(*l_, nullptr));
          serial_upper_multi_k(csr_upper(*u_, nullptr, n_));
        }
      };
      break;
    case ExecutionStrategy::kAuto:
      break;  // unreachable
  }
  upper_region_ = contained(std::move(upper_region_));
  fused_region_ = contained(std::move(fused_region_));
  batch_region_ = contained(std::move(batch_region_));
}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l, const Csr* u,
                           const PlanOptions& opts)
    : pool_(&pool),
      l_(&l),
      u_(u),
      opts_(opts),
      n_(l.rows),
      nth_(pool.clamp_threads(opts.nthreads)),
      barrier_(nth_ == 0 ? 1 : nth_) {
  check_factor(l, "lower");
  if (u) {
    check_factor(*u, "upper");
    if (u->rows != l.rows) {
      throw std::invalid_argument("TrisolvePlan: L/U dimension mismatch");
    }
  }
  ready_l_.ensure_size(n_);
  episodes_.resize(nth_);
  rounds_.resize(nth_);
  resolve_kernel();
  resolve_strategy();
  // Fault containment: every flag wait and barrier wait of this plan
  // polls the latch (and the optional stall budget); see DESIGN.md §12.
  barrier_.watch(&latch_, opts_.stall_budget);
  guard_ = rt::WaitGuard{&latch_, opts_.stall_budget,
                         core::to_string(telemetry_.strategy)};
  if (needs_reordering() && !l_order_) {
    l_order_ = std::make_unique<core::Reordering>(lower_solve_reordering(l));
  }
  if (!needs_reordering()) {
    l_order_.reset();  // kSerial runs in source order
  }
  if (u) {
    ready_u_.ensure_size(n_);
    tmp_.resize(static_cast<std::size_t>(n_));
    if (needs_reordering()) {
      u_order_ =
          std::make_unique<core::Reordering>(upper_solve_reordering(*u));
    }
  }
  build_packed();
  bind_lower_region();
  if (u) bind_upper_regions();
}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l,
                           const PlanOptions& opts)
    : TrisolvePlan(pool, l, nullptr, opts) {}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l, const Csr& u,
                           const PlanOptions& opts)
    : TrisolvePlan(pool, l, &u, opts) {}

template <class Src>
void TrisolvePlan::lower_flags_k(Src src, const double* rhs_p, double* yp,
                                 unsigned tid, unsigned nthreads,
                                 std::uint64_t& episodes,
                                 std::uint64_t& rounds) {
  const int work_reps = opts_.work_reps;
  const bool ulp = ulp_dot_;
  std::uint64_t my_episodes = 0, my_rounds = 0;
  // Identical arithmetic (term order, division) to trisolve_lower_seq —
  // results are bitwise equal; the ready flags only sequence the reads.
  // The opt-in ulp path retires every wait first, then runs the
  // reassociated vector dot over the whole row.
  auto solve_row = [&](index_t k) {
    const PackedRow r = src.at(k);
    if (injector_) injector_->on_row(tid, r.row, &latch_);
    double acc = rhs_p[r.row];
    if (ulp) {
      for (index_t j = 0; j < r.cnt; ++j) {
        const std::uint64_t w =
            core::wait_done_guarded(ready_l_, r.cols[j], r.row, guard_);
        if (w != 0) {
          ++my_episodes;
          my_rounds += w;
        }
      }
      acc -= lanes_->dot(r.vals, r.cols, yp, r.cnt);
    } else {
      for (index_t j = 0; j < r.cnt; ++j) {
        const index_t c = r.cols[j];
        const std::uint64_t w =
            core::wait_done_guarded(ready_l_, c, r.row, guard_);
        if (w != 0) {
          ++my_episodes;
          my_rounds += w;
        }
        acc -= r.vals[j] * yp[c];
        if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
      }
    }
    yp[r.row] = acc / r.diag;
    ready_l_.mark_done(r.row);  // release-publishes the y store
  };
  rt::schedule_run(opts_.schedule, n_, tid, nthreads, &cursor_l_, solve_row);
  episodes += my_episodes;
  rounds += my_rounds;
}

template <class Src>
void TrisolvePlan::upper_flags_k(Src src, const double* rhs_p, double* yp,
                                 unsigned tid, unsigned nthreads,
                                 std::uint64_t& episodes,
                                 std::uint64_t& rounds) {
  const bool ulp = ulp_dot_;
  std::uint64_t my_episodes = 0, my_rounds = 0;
  auto solve_row = [&](index_t k) {
    const PackedRow r = src.at(k);
    if (injector_) injector_->on_row(tid, r.row, &latch_);
    double acc = rhs_p[r.row];
    if (ulp) {
      for (index_t j = 0; j < r.cnt; ++j) {
        const std::uint64_t w =
            core::wait_done_guarded(ready_u_, r.cols[j], r.row, guard_);
        if (w != 0) {
          ++my_episodes;
          my_rounds += w;
        }
      }
      acc -= lanes_->dot(r.vals, r.cols, yp, r.cnt);
    } else {
      for (index_t j = 0; j < r.cnt; ++j) {
        const index_t c = r.cols[j];
        const std::uint64_t w =
            core::wait_done_guarded(ready_u_, c, r.row, guard_);
        if (w != 0) {
          ++my_episodes;
          my_rounds += w;
        }
        acc -= r.vals[j] * yp[c];
      }
    }
    yp[r.row] = acc / r.diag;
    ready_u_.mark_done(r.row);
  };
  rt::schedule_run(opts_.schedule, n_, tid, nthreads, &cursor_u_, solve_row);
  episodes += my_episodes;
  rounds += my_rounds;
}

template <class Src>
void TrisolvePlan::lower_flags_multi_k(Src src, unsigned tid,
                                       unsigned nthreads,
                                       std::uint64_t& episodes,
                                       std::uint64_t& rounds) {
  const index_t k = batch_k_;
  const double* const* b_cols = batch_b_.data();
  double* tp = batch_tmp_.data();
  const int work_reps = opts_.work_reps;
  std::uint64_t my_episodes = 0, my_rounds = 0;
  // Column c runs the exact arithmetic of the single-RHS kernel on
  // b_cols[c] (term order, division) — bitwise equal per column. One
  // ready flag per row covers all k columns: a dependence is waited on
  // once, not k times, and the row's record is read once for the whole
  // batch. Row i's k results accumulate in place in the row-major strip,
  // where consumers read them contiguously.
  auto solve_row = [&](index_t pos) {
    const PackedRow r = src.at(pos);
    if (injector_) injector_->on_row(tid, r.row, &latch_);
    double* ti = tp + r.row * k;
    for (index_t c = 0; c < k; ++c) ti[c] = b_cols[c][r.row];
    // Waits retire first (pulling each ready dependence's strip row
    // toward L1 as it lands), then the whole dependence list runs
    // through one fused lane-kernel call.
    for (index_t j = 0; j < r.cnt; ++j) {
      const index_t col = r.cols[j];
      const std::uint64_t w = core::wait_done_guarded(ready_l_, col, r.row, guard_);
      if (w != 0) {
        ++my_episodes;
        my_rounds += w;
      }
      prefetch_strip_row(lanes_, tp, col, k);
    }
    lane_row_update(lanes_, ti, tp, r, k, work_reps);
    lane_div(lanes_, ti, r.diag, k);
    ready_l_.mark_done(r.row);  // release-publishes all k stores of this row
  };
  rt::schedule_run(opts_.schedule, n_, tid, nthreads, &cursor_l_, solve_row);
  episodes += my_episodes;
  rounds += my_rounds;
}

template <class Src>
void TrisolvePlan::upper_flags_multi_k(Src src, unsigned tid,
                                       unsigned nthreads,
                                       std::uint64_t& episodes,
                                       std::uint64_t& rounds) {
  const index_t k = batch_k_;
  double* const* x_cols = batch_x_.data();
  double* tp = batch_tmp_.data();
  std::uint64_t my_episodes = 0, my_rounds = 0;
  // Row i's strip holds the forward-solve results on entry and is updated
  // in place into the backward-solve solution; the solution stays
  // resident in the strip (consumers read it contiguously) and is
  // mirrored into the caller's column vectors before the row is marked.
  auto solve_row = [&](index_t pos) {
    const PackedRow r = src.at(pos);
    if (injector_) injector_->on_row(tid, r.row, &latch_);
    double* ti = tp + r.row * k;
    for (index_t j = 0; j < r.cnt; ++j) {
      const index_t col = r.cols[j];
      const std::uint64_t w = core::wait_done_guarded(ready_u_, col, r.row, guard_);
      if (w != 0) {
        ++my_episodes;
        my_rounds += w;
      }
      prefetch_strip_row(lanes_, tp, col, k);
    }
    lane_row_update(lanes_, ti, tp, r, k, /*work_reps=*/0);
    lane_div(lanes_, ti, r.diag, k);
    for (index_t c = 0; c < k; ++c) x_cols[c][r.row] = ti[c];
    ready_u_.mark_done(r.row);
  };
  rt::schedule_run(opts_.schedule, n_, tid, nthreads, &cursor_u_, solve_row);
  episodes += my_episodes;
  rounds += my_rounds;
}

template <class Src>
void TrisolvePlan::lower_levels_k(Src src, const double* rhs_p, double* yp,
                                  unsigned tid, unsigned nthreads) {
  // Bulk-synchronous wavefronts: every producer of level l finished
  // before the barrier that opens level l+1, so no flags are consulted
  // or published. Row arithmetic is identical to the flag kernels.
  const core::Reordering& ord = *l_order_;
  const int work_reps = opts_.work_reps;
  const bool ulp = ulp_dot_;
  for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
    const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
    const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const rt::IterRange r = rt::static_block_range(hi - lo, tid, nthreads);
    for (index_t pos = lo + r.begin; pos < lo + r.end; ++pos) {
      const PackedRow row = src.at(pos);
      if (injector_) injector_->on_row(tid, row.row, &latch_);
      double acc = rhs_p[row.row];
      if (ulp) {
        acc -= lanes_->dot(row.vals, row.cols, yp, row.cnt);
      } else {
        for (index_t j = 0; j < row.cnt; ++j) {
          acc -= row.vals[j] * yp[row.cols[j]];
          if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
        }
      }
      yp[row.row] = acc / row.diag;
    }
    // The trailing episode doubles as the L→U handoff of a fused solve.
    barrier_.arrive_and_wait();
  }
}

template <class Src>
void TrisolvePlan::upper_levels_k(Src src, const double* rhs_p, double* yp,
                                  unsigned tid, unsigned nthreads) {
  const core::Reordering& ord = *u_order_;
  const bool ulp = ulp_dot_;
  for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
    const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
    const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const rt::IterRange r = rt::static_block_range(hi - lo, tid, nthreads);
    for (index_t pos = lo + r.begin; pos < lo + r.end; ++pos) {
      const PackedRow row = src.at(pos);
      if (injector_) injector_->on_row(tid, row.row, &latch_);
      double acc = rhs_p[row.row];
      if (ulp) {
        acc -= lanes_->dot(row.vals, row.cols, yp, row.cnt);
      } else {
        for (index_t j = 0; j < row.cnt; ++j) {
          acc -= row.vals[j] * yp[row.cols[j]];
        }
      }
      yp[row.row] = acc / row.diag;
    }
    barrier_.arrive_and_wait();
  }
}

template <class Src>
void TrisolvePlan::lower_levels_multi_k(Src src, unsigned tid,
                                        unsigned nthreads) {
  const core::Reordering& ord = *l_order_;
  const index_t k = batch_k_;
  const double* const* b_cols = batch_b_.data();
  double* tp = batch_tmp_.data();
  const int work_reps = opts_.work_reps;
  auto body = [&](const PackedRow& row) {
    if (injector_) injector_->on_row(tid, row.row, &latch_);
    double* ti = tp + row.row * k;
    for (index_t c = 0; c < k; ++c) ti[c] = b_cols[c][row.row];
    lane_row_update(lanes_, ti, tp, row, k, work_reps);
    lane_div(lanes_, ti, row.diag, k);
  };
  const bool look = want_lookahead(lanes_, k, work_reps);
  for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
    const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
    const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const rt::IterRange r = rt::static_block_range(hi - lo, tid, nthreads);
    const index_t end = lo + r.end;
    index_t pos = lo + r.begin;
    if (look && pos < end) {
      // Pipelined within the level: the lookahead row's dependences are
      // all in earlier levels, so prefetching them is always final data.
      PackedRow row = src.at(pos);
      for (; pos < end; ++pos) {
        const PackedRow nxt = pos + 1 < end ? src.at(pos + 1) : PackedRow{};
        prefetch_row_deps(nxt, tp, k);
        body(row);
        row = nxt;
      }
    } else {
      for (; pos < end; ++pos) body(src.at(pos));
    }
    barrier_.arrive_and_wait();
  }
}

template <class Src>
void TrisolvePlan::upper_levels_multi_k(Src src, unsigned tid,
                                        unsigned nthreads) {
  const core::Reordering& ord = *u_order_;
  const index_t k = batch_k_;
  double* const* x_cols = batch_x_.data();
  double* tp = batch_tmp_.data();
  auto body = [&](const PackedRow& row) {
    if (injector_) injector_->on_row(tid, row.row, &latch_);
    double* ti = tp + row.row * k;
    lane_row_update(lanes_, ti, tp, row, k, /*work_reps=*/0);
    lane_div(lanes_, ti, row.diag, k);
    for (index_t c = 0; c < k; ++c) x_cols[c][row.row] = ti[c];
  };
  const bool look = want_lookahead(lanes_, k, /*work_reps=*/0);
  for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
    const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
    const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const rt::IterRange r = rt::static_block_range(hi - lo, tid, nthreads);
    const index_t end = lo + r.end;
    index_t pos = lo + r.begin;
    if (look && pos < end) {
      PackedRow row = src.at(pos);
      for (; pos < end; ++pos) {
        const PackedRow nxt = pos + 1 < end ? src.at(pos + 1) : PackedRow{};
        prefetch_row_deps(nxt, tp, k);
        body(row);
        row = nxt;
      }
    } else {
      for (; pos < end; ++pos) body(src.at(pos));
    }
    barrier_.arrive_and_wait();
  }
}

template <class Src>
void TrisolvePlan::serial_lower_k(Src src, const double* rhs_p,
                                  double* yp) {
  // The strategy for chains is to pay NOTHING — no flags, no barrier, no
  // pool wake-up: the sequential Fig. 7 arithmetic the bitwise contract
  // is defined against, read through whichever layout the plan owns.
  const int work_reps = opts_.work_reps;
  const bool ulp = ulp_dot_;
  for (index_t k = 0; k < n_; ++k) {
    const PackedRow r = src.at(k);
    if (injector_) injector_->on_row(0, r.row, &latch_);
    double acc = rhs_p[r.row];
    if (ulp) {
      acc -= lanes_->dot(r.vals, r.cols, yp, r.cnt);
    } else {
      for (index_t j = 0; j < r.cnt; ++j) {
        acc -= r.vals[j] * yp[r.cols[j]];
        if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
      }
    }
    yp[r.row] = acc / r.diag;
  }
}

template <class Src>
void TrisolvePlan::serial_upper_k(Src src, const double* rhs_p,
                                  double* yp) {
  const bool ulp = ulp_dot_;
  for (index_t k = 0; k < n_; ++k) {
    const PackedRow r = src.at(k);
    if (injector_) injector_->on_row(0, r.row, &latch_);
    double acc = rhs_p[r.row];
    if (ulp) {
      acc -= lanes_->dot(r.vals, r.cols, yp, r.cnt);
    } else {
      for (index_t j = 0; j < r.cnt; ++j) {
        acc -= r.vals[j] * yp[r.cols[j]];
      }
    }
    yp[r.row] = acc / r.diag;
  }
}

template <class Src>
void TrisolvePlan::serial_lower_multi_k(Src src) {
  // The interleaved batch through the serial walk: no flags, no barrier,
  // no dispatch — but the k columns of each strip row still retire
  // through one lane kernel per nonzero, which is where a single-core
  // batch server earns its vector units (bitwise equal per column to the
  // single-RHS walk; same term order, same division).
  const index_t k = batch_k_;
  const double* const* b_cols = batch_b_.data();
  double* tp = batch_tmp_.data();
  const int work_reps = opts_.work_reps;
  auto body = [&](const PackedRow& r) {
    if (injector_) injector_->on_row(0, r.row, &latch_);
    double* ti = tp + r.row * k;
    for (index_t c = 0; c < k; ++c) ti[c] = b_cols[c][r.row];
    lane_row_update(lanes_, ti, tp, r, k, work_reps);
    lane_div(lanes_, ti, r.diag, k);
  };
  if (want_lookahead(lanes_, k, work_reps) && n_ > 0) {
    PackedRow r = src.at(0);
    for (index_t pos = 0; pos < n_; ++pos) {
      const PackedRow nxt = pos + 1 < n_ ? src.at(pos + 1) : PackedRow{};
      prefetch_row_deps(nxt, tp, k);
      body(r);
      r = nxt;
    }
  } else {
    for (index_t pos = 0; pos < n_; ++pos) body(src.at(pos));
  }
}

template <class Src>
void TrisolvePlan::serial_upper_multi_k(Src src) {
  const index_t k = batch_k_;
  double* const* x_cols = batch_x_.data();
  double* tp = batch_tmp_.data();
  auto body = [&](const PackedRow& r) {
    if (injector_) injector_->on_row(0, r.row, &latch_);
    double* ti = tp + r.row * k;
    lane_row_update(lanes_, ti, tp, r, k, /*work_reps=*/0);
    lane_div(lanes_, ti, r.diag, k);
    for (index_t c = 0; c < k; ++c) x_cols[c][r.row] = ti[c];
  };
  if (want_lookahead(lanes_, k, /*work_reps=*/0) && n_ > 0) {
    PackedRow r = src.at(0);
    for (index_t pos = 0; pos < n_; ++pos) {
      const PackedRow nxt = pos + 1 < n_ ? src.at(pos + 1) : PackedRow{};
      prefetch_row_deps(nxt, tp, k);
      body(r);
      r = nxt;
    }
  } else {
    for (index_t pos = 0; pos < n_; ++pos) body(src.at(pos));
  }
}

void TrisolvePlan::refresh_values(const IluFactors& f) {
  if (poisoned_) {
    throw rt::PlanPoisonedError(
        "TrisolvePlan::refresh_values: plan poisoned by an earlier "
        "in-region fault; rebuild the plan");
  }
  if (!u_) {
    throw std::logic_error("TrisolvePlan::refresh_values: lower-only plan");
  }
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  // Same-object refreshes (the factorization re-filled the values of the
  // very factors the plan reads) skip the pattern comparison; a foreign
  // pair must prove pattern equality before the plan rebinds to it.
  auto same_pattern = [](const Csr& x, const Csr& y) noexcept {
    return x.rows == y.rows && x.cols == y.cols && x.ptr == y.ptr &&
           x.idx == y.idx;
  };
  if ((&f.l != l_ && !same_pattern(f.l, *l_)) ||
      (&f.u != u_ && !same_pattern(f.u, *u_))) {
    throw std::invalid_argument(
        "TrisolvePlan::refresh_values: pattern mismatch — a value-only "
        "refresh requires the plan's sparsity pattern; rebuild the plan");
  }
  l_ = &f.l;  // kCsrView's whole refresh: the kernels read through these
  u_ = &f.u;
  if (telemetry_.layout == PlanLayout::kPacked) {
    if (packed_l_.slab_count() <= 1) {
      // Serial plans repack inline — the calling thread is the executor.
      packed_l_.repack_values(*l_, 0);
      packed_u_.repack_values(*u_, 0);
    } else {
      pool_->parallel_region(nth_, refresh_region_);
    }
  }
  const clock::time_point t1 = clock::now();
  telemetry_.refresh_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  ++refreshes_;
}

void TrisolvePlan::reset_for_call(bool lower, bool upper) noexcept {
  // The whole per-call reset: two O(1) epoch bumps and two counter
  // stores. Compare trisolve_doacross's per-call Barrier + two vector
  // allocations + O(n/p) flag sweep + extra barrier. (Flag-free
  // strategies pay the bumps too — they are two relaxed stores.)
  if (lower) {
    ready_l_.begin_epoch();
    cursor_l_.store(0, std::memory_order_relaxed);
  }
  if (upper) {
    ready_u_.begin_epoch();
    cursor_u_.store(0, std::memory_order_relaxed);
  }
}

core::DoacrossStats TrisolvePlan::dispatch(
    const rt::ThreadPool::RegionFn& region) {
  if (poisoned_) {
    throw rt::PlanPoisonedError(
        "TrisolvePlan: plan poisoned by an earlier in-region fault; "
        "rebuild the plan before solving again");
  }
  using clock = std::chrono::steady_clock;
  core::DoacrossStats stats;
  if (telemetry_.strategy == ExecutionStrategy::kSerial) {
    // The serial strategy's entire value is paying zero parallel
    // overhead: the region runs inline on the calling thread, the pool
    // is never woken, and there are no wait episodes to sum.
    const clock::time_point t0 = clock::now();
    region(0, 1);
    const clock::time_point t1 = clock::now();
    if (latch_.raised()) {
      poisoned_ = true;
      latch_.rethrow_and_reset();
    }
    stats.execute_seconds = std::chrono::duration<double>(t1 - t0).count();
    ++solves_;
    // Race bookkeeping only after a SUCCESSFUL epoch: a fault above
    // poisons the plan without corrupting the race or feeding the cache.
    if (calibrating_) note_calibration_epoch(stats.execute_seconds);
    return stats;
  }
  const clock::time_point t0 = clock::now();
  pool_->parallel_region(nth_, region);
  const clock::time_point t1 = clock::now();
  if (latch_.raised()) {
    // A worker faulted inside the region; its peers drained their flag
    // waits via the latch and joined. Partial y/x contents are garbage —
    // poison so every later solve fails fast instead of reading them.
    poisoned_ = true;
    latch_.rethrow_and_reset();
  }
  // Preprocessing was amortized at plan build and the postprocessing
  // sweep no longer exists, so the whole call is executor time (pool
  // wake-up included — the number a repeated caller actually pays).
  stats.execute_seconds = std::chrono::duration<double>(t1 - t0).count();
  for (unsigned t = 0; t < nth_; ++t) {
    stats.wait_episodes += episodes_[t].value;
    stats.wait_rounds += rounds_[t].value;
  }
  ++solves_;
  if (calibrating_) note_calibration_epoch(stats.execute_seconds);
  return stats;
}

core::DoacrossStats TrisolvePlan::solve_lower(std::span<const double> rhs,
                                              std::span<double> y) {
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(y.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve_lower: size mismatch");
  }
  if (n_ == 0) return {};
  reset_for_call(/*lower=*/true, /*upper=*/false);
  lo_rhs_ = rhs.data();
  lo_y_ = y.data();
  return dispatch(lower_region_);
}

core::DoacrossStats TrisolvePlan::solve_upper(std::span<const double> rhs,
                                              std::span<double> z) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve_upper: lower-only plan");
  }
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(z.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve_upper: size mismatch");
  }
  if (n_ == 0) return {};
  reset_for_call(/*lower=*/false, /*upper=*/true);
  up_rhs_ = rhs.data();
  up_y_ = z.data();
  return dispatch(upper_region_);
}

core::DoacrossStats TrisolvePlan::run_fused(const double* rhs, double* z) {
  if (n_ == 0) return {};
  reset_for_call(/*lower=*/true, /*upper=*/true);
  lo_rhs_ = rhs;
  lo_y_ = tmp_.data();
  up_rhs_ = tmp_.data();
  up_y_ = z;
  return dispatch(fused_region_);
}

core::DoacrossStats TrisolvePlan::solve(std::span<const double> rhs,
                                        std::span<double> z) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve: lower-only plan");
  }
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(z.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve: size mismatch");
  }
  return run_fused(rhs.data(), z.data());
}

void TrisolvePlan::reserve_batch(index_t max_k) {
  if (max_k < 1) {
    throw std::invalid_argument("TrisolvePlan::reserve_batch: max_k < 1");
  }
  const std::size_t k = static_cast<std::size_t>(max_k);
  if (batch_b_.size() < k) {
    batch_b_.resize(k);
    batch_x_.resize(k);
  }
  const std::size_t strip = static_cast<std::size_t>(n_) * k;
  if (batch_tmp_.size() < strip) batch_tmp_.resize(strip);
}

core::DoacrossStats TrisolvePlan::run_column(const double* b, double* x) {
  // A one-column strip would be the fused solve over an n-by-1 copy of
  // tmp_: the same bits, plus an allocation and a slower walk.
  const core::DoacrossStats stats = run_fused(b, x);
  if (n_ > 0) ++batch_columns_;
  return stats;
}

core::DoacrossStats TrisolvePlan::run_batch(index_t k) {
  if (n_ == 0) return {};
  batch_k_ = k;
  // Scalar-vs-vector kernel race (DESIGN.md §14): fed only by dispatches
  // that actually execute lane kernels — batches at least one vector
  // wide, after the strategy race locked in (so the timing compares
  // kernels, not strategies) and never under machine emulation (which
  // pins the instrumented scalar loop). Both candidates are bitwise
  // identical per column, so exploring is invisible to callers.
  const bool kernel_epoch = kernel_race_.active() && !calibrating_ &&
                            k >= kernels::kLaneMin && opts_.work_reps == 0;
  if (kernel_epoch) {
    const kernels::KernelChoice cand = kernel_race_.candidate();
    set_lanes(cand == kernels::KernelChoice::kScalar
                  ? &kernels::scalar_ops()
                  : &kernels::dispatched_ops());
    telemetry_.kernel = cand;
  }
  reset_for_call(/*lower=*/true, /*upper=*/true);
#ifndef NDEBUG
  // A calibration epoch may advance the race inside dispatch() —
  // switching the strategy the budget is defined by, and a lock-in can
  // spend an extra dispatch packing the winner — so the budget assert
  // only covers locked-in plans.
  const bool was_calibrating = calibrating_;
  const rt::DispatchProbe probe(*pool_);
#endif
  const core::DoacrossStats stats = dispatch(batch_region_);
#ifndef NDEBUG
  assert((was_calibrating ||
          probe.delta() ==
              (telemetry_.strategy == ExecutionStrategy::kSerial ? 0u
                                                                 : 1u)) &&
         "solve_batch must cost exactly one pool dispatch (zero serial)");
#endif
  // Only a SUCCESSFUL epoch feeds the race — a fault above threw out of
  // dispatch() after poisoning the plan.
  if (kernel_epoch) note_kernel_epoch(stats.execute_seconds, k);
  batch_columns_ += static_cast<std::uint64_t>(k);
  return stats;
}

core::DoacrossStats TrisolvePlan::solve_batch(std::span<const double> b,
                                              std::span<double> x,
                                              index_t k) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve_batch: lower-only plan");
  }
  if (k < 1) {
    throw std::invalid_argument("TrisolvePlan::solve_batch: k must be >= 1");
  }
  if (static_cast<index_t>(b.size()) < n_ * k ||
      static_cast<index_t>(x.size()) < n_ * k) {
    throw std::invalid_argument(
        "TrisolvePlan::solve_batch: size mismatch — b has " +
        std::to_string(b.size()) + " and x has " + std::to_string(x.size()) +
        " entries but n*k = " + std::to_string(n_) + "*" + std::to_string(k) +
        " = " + std::to_string(n_ * k) + " are required");
  }
  if (k == 1) return run_column(b.data(), x.data());
  reserve_batch(k);
  for (index_t c = 0; c < k; ++c) {
    batch_b_[static_cast<std::size_t>(c)] = b.data() + c * n_;
    batch_x_[static_cast<std::size_t>(c)] = x.data() + c * n_;
  }
  return run_batch(k);
}

core::DoacrossStats TrisolvePlan::solve_batch(const double* const* b_cols,
                                              double* const* x_cols,
                                              index_t k) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve_batch: lower-only plan");
  }
  if (k < 1) {
    throw std::invalid_argument("TrisolvePlan::solve_batch: k must be >= 1");
  }
  if (k == 1) return run_column(b_cols[0], x_cols[0]);
  reserve_batch(k);
  for (index_t c = 0; c < k; ++c) {
    batch_b_[static_cast<std::size_t>(c)] = b_cols[c];
    batch_x_[static_cast<std::size_t>(c)] = x_cols[c];
  }
  return run_batch(k);
}

}  // namespace pdx::sparse
