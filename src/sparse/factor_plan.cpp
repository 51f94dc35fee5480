#include "sparse/factor_plan.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sparse/levels.hpp"

namespace pdx::sparse {

namespace {

/// Keep the smallest bad row observed by any thread: the parallel
/// factorization reports the same row the sequential loop would have
/// thrown on first (a produced diagonal only goes bad in its own row's
/// elimination, and every row smaller than it factored cleanly).
void record_bad_row(std::atomic<index_t>& slot, index_t i) noexcept {
  index_t cur = slot.load(std::memory_order_relaxed);
  while (cur < 0 || i < cur) {
    if (slot.compare_exchange_weak(cur, i, std::memory_order_relaxed)) return;
  }
}

}  // namespace

void FactorPlan::build_symbolic(const Csr& a) {
  if (a.rows != a.cols) {
    throw std::invalid_argument("FactorPlan: matrix not square");
  }
  a.validate();
  n_ = a.rows;
  ptr_ = a.ptr;
  idx_ = a.idx;

  diag_.resize(static_cast<std::size_t>(n_));
  for (index_t i = 0; i < n_; ++i) {
    const index_t d = a.find(i, i);
    if (d < 0) {
      throw std::invalid_argument("FactorPlan: missing diagonal at row " +
                                  std::to_string(i));
    }
    diag_[static_cast<std::size_t>(i)] = d;
  }

  // Split row pointers: L row i holds the strictly-lower run plus the
  // explicit unit diagonal, U row i the diagonal plus the upper run.
  lptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  uptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (index_t i = 0; i < n_; ++i) {
    const index_t d = diag_[static_cast<std::size_t>(i)];
    lptr_[static_cast<std::size_t>(i) + 1] =
        lptr_[static_cast<std::size_t>(i)] + (d - a.row_begin(i)) + 1;
    uptr_[static_cast<std::size_t>(i) + 1] =
        uptr_[static_cast<std::size_t>(i)] + (a.row_end(i) - d);
  }

  // Elimination steps: one per strictly-lower entry, in row-major stored
  // order — exactly the sequential IKJ loop's step sequence. The scatter
  // of each step (row k's upper entries restricted to row i's pattern) is
  // resolved here, once, into flat (target, source) position pairs, so
  // the numeric kernel never probes a pos[] array again.
  row_step_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  std::size_t steps = 0;
  for (index_t i = 0; i < n_; ++i) {
    steps += static_cast<std::size_t>(diag_[static_cast<std::size_t>(i)] -
                                      a.row_begin(i));
    row_step_ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(steps);
  }
  lik_pos_.reserve(steps);
  pivot_pos_.reserve(steps);
  upd_ptr_.reserve(steps + 1);
  upd_ptr_.push_back(0);

  std::vector<index_t> pos(static_cast<std::size_t>(n_), -1);
  for (index_t i = 0; i < n_; ++i) {
    for (index_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      pos[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] = k;
    }
    const index_t d = diag_[static_cast<std::size_t>(i)];
    for (index_t kk = a.row_begin(i); kk < d; ++kk) {
      const index_t k = a.idx[static_cast<std::size_t>(kk)];
      lik_pos_.push_back(kk);
      pivot_pos_.push_back(diag_[static_cast<std::size_t>(k)]);
      for (index_t jj = diag_[static_cast<std::size_t>(k)] + 1;
           jj < a.row_end(k); ++jj) {
        const index_t p =
            pos[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(jj)])];
        if (p >= 0) {
          upd_tgt_.push_back(p);
          upd_src_.push_back(jj);
        }
      }
      upd_ptr_.push_back(static_cast<index_t>(upd_tgt_.size()));
    }
    for (index_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      pos[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] = -1;
    }
  }
  upd_tgt_.shrink_to_fit();
  upd_src_.shrink_to_fit();

  w_.resize(static_cast<std::size_t>(a.nnz()));
}

namespace {

core::DagPlanConfig core_config(const FactorPlanOptions& o) noexcept {
  return {.nthreads = o.nthreads,
          .strategy = o.strategy,
          .schedule = o.schedule,
          .reorder = o.reorder,
          .calibration_epochs = o.calibration_epochs,
          .use_tuning_cache = o.use_tuning_cache,
          .stall_budget = o.stall_budget,
          .factor = true,
          .name = "FactorPlan",
          .epoch = "factorization"};
}

}  // namespace

FactorPlan::FactorPlan(rt::ThreadPool& pool, const Csr& a,
                       const FactorPlanOptions& opts)
    : opts_(opts), core_(pool, a.rows, 1, core_config(opts), telemetry_) {
  build_symbolic(a);
  core::Dag& d = core_.dag(0);
  if (opts_.strategy == ExecutionStrategy::kAuto) {
    // Factorization rows carry ~nnz/row times the work of a solve row, so
    // the factor advisor's heuristic opening bid differs from the solve
    // advisor's; the race protocol is the same (DESIGN.md §13).
    d.order = std::make_unique<core::Reordering>(lower_solve_reordering(a));
    const core::TrisolveStructure s = measure_lower_solve(a, *d.order);
    core_.decide(s, core::advise_factor_schedule(s, core_.nthreads()));
  }
  if (core_.needs_order() && !d.order) {
    d.order = std::make_unique<core::Reordering>(lower_solve_reordering(a));
  }
  if (!core_.needs_order()) {
    d.order.reset();  // kSerial runs in source order
  }

  // Bound once; per-call inputs travel through aval_/lval_/uval_ so
  // factorize() never constructs (= heap-allocates) a std::function.
  region_ = core_.contained([this](unsigned tid, unsigned nthreads) {
    core_.walk_rows(core_.dag(0), tid, nthreads,
                    [this](index_t i, auto& wait) { factor_row(i, wait); });
  });

  telemetry_.symbolic_bytes =
      (ptr_.size() + idx_.size() + diag_.size() + lptr_.size() +
       uptr_.size() + row_step_ptr_.size() + lik_pos_.size() +
       pivot_pos_.size() + upd_ptr_.size() + upd_tgt_.size() +
       upd_src_.size()) *
          sizeof(index_t) +
      w_.size() * sizeof(double);
  // Csr::memory_bytes() of the pair allocate_factors() hands out: L's
  // rows carry the unit diagonal, U's the pivot, so the two together
  // store nnz + n entries.
  {
    const std::size_t lnnz = lptr_.back();
    const std::size_t unnz = uptr_.back();
    telemetry_.factor_bytes =
        2 * (static_cast<std::size_t>(n_) + 1) * sizeof(index_t) +
        (lnnz + unnz) * (sizeof(index_t) + sizeof(double));
  }
}

IluFactors FactorPlan::allocate_factors() const {
  // One layout authority: the same split ilu0() allocates through, fed
  // from the plan's pattern copy (the split never reads values).
  Csr pattern(n_, n_);
  pattern.ptr = ptr_;
  pattern.idx = idx_;
  return ilu0_split_pattern(pattern, diag_);
}

template <class WaitFn>
void FactorPlan::factor_row(index_t i, WaitFn&& wait) {
  // Identical arithmetic (step order, update order, divisions) to the
  // sequential ilu0() IKJ loop — values are bitwise equal; the wait hook
  // only sequences the reads of earlier rows' finalized values.
  double* w = w_.data();
  const index_t rb = ptr_[static_cast<std::size_t>(i)];
  const index_t re = ptr_[static_cast<std::size_t>(i) + 1];
  const index_t d = diag_[static_cast<std::size_t>(i)];
  for (index_t k = rb; k < re; ++k) {
    w[k] = aval_[k];  // row i's w slice is written only by row i
  }
  const index_t s_end = row_step_ptr_[static_cast<std::size_t>(i) + 1];
  for (index_t s = row_step_ptr_[static_cast<std::size_t>(i)]; s < s_end;
       ++s) {
    const index_t kk = lik_pos_[static_cast<std::size_t>(s)];
    wait(idx_[static_cast<std::size_t>(kk)]);
    const double lik = w[kk] / w[pivot_pos_[static_cast<std::size_t>(s)]];
    w[kk] = lik;
    const index_t t_begin = upd_ptr_[static_cast<std::size_t>(s)];
    const index_t t_end = upd_ptr_[static_cast<std::size_t>(s) + 1];
    const index_t cnt = t_end - t_begin;
    if (cnt >= kernels::kLaneMin) {
      // Targets are positions in row i (distinct), sources in the
      // retired pivot row — disjoint, as the gather kernels require.
      lanes_->gather_axpy(w, upd_tgt_.data() + t_begin,
                          upd_src_.data() + t_begin, cnt, lik);
    } else {
      for (index_t t = t_begin; t < t_end; ++t) {
        w[upd_tgt_[static_cast<std::size_t>(t)]] -=
            lik * w[upd_src_[static_cast<std::size_t>(t)]];
      }
    }
  }
  // Pivot policy at production, BEFORE the factor copy and before the
  // caller publishes the row: consumers read w, so a substitution is
  // seen by every later row and lands in U — thread-order independent,
  // hence bitwise identical to ilu0(a, pivot) under every strategy.
  double piv = w[d];
  if (rt::FaultInjector* inj = core_.injector()) {
    piv = inj->filter_pivot(i, piv);
  }
  if (piv == 0.0 || !std::isfinite(piv)) {
    switch (opts_.pivot.policy) {
      case PivotPolicy::kThrow:
        record_bad_row(bad_row_, i);
        break;
      case PivotPolicy::kShift:
        piv = shift_sigma_;
        shift_count_.fetch_add(1, std::memory_order_relaxed);
        break;
      case PivotPolicy::kReplace:
        piv = opts_.pivot.replacement;
        shift_count_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  w[d] = piv;
  // Split row i into the factors: both destination runs are contiguous
  // (sorted row, lower part first), so the scatter of ilu0()'s split loop
  // is two straight copies. L's unit diagonal was written at allocation.
  std::memcpy(lval_ + lptr_[static_cast<std::size_t>(i)], w + rb,
              static_cast<std::size_t>(d - rb) * sizeof(double));
  std::memcpy(uval_ + uptr_[static_cast<std::size_t>(i)], w + d,
              static_cast<std::size_t>(re - d) * sizeof(double));
}

bool FactorPlan::split_idx_matches(const IluFactors& f) const noexcept {
  // Column indices, not just row counts: two patterns can share every
  // per-row split size and still disagree on which columns the rows
  // store, and writing values through the wrong columns would corrupt
  // the factors silently.
  for (index_t i = 0; i < n_; ++i) {
    const index_t d = diag_[static_cast<std::size_t>(i)];
    index_t lp = lptr_[static_cast<std::size_t>(i)];
    for (index_t k = ptr_[static_cast<std::size_t>(i)]; k < d; ++k) {
      if (f.l.idx[static_cast<std::size_t>(lp++)] !=
          idx_[static_cast<std::size_t>(k)]) {
        return false;
      }
    }
    if (f.l.idx[static_cast<std::size_t>(lp)] != i) return false;
    index_t up = uptr_[static_cast<std::size_t>(i)];
    for (index_t k = d; k < ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      if (f.u.idx[static_cast<std::size_t>(up++)] !=
          idx_[static_cast<std::size_t>(k)]) {
        return false;
      }
    }
  }
  return true;
}

FactorStats FactorPlan::factorize(const Csr& a, IluFactors& f) {
  core_.throw_if_poisoned();
  // The O(nnz) idx comparisons run once per distinct buffer set: a
  // time-stepping caller re-assembles VALUES into the same Csr / factor
  // objects every step, so steady-state validation drops to the O(n)
  // row-pointer compare (kept even on the fast path — it catches any
  // realistic pattern change, including a reallocated buffer landing at
  // a previously validated address with different row counts). Same
  // skip rule as refresh_values: rewriting COLUMN indices in place —
  // same buffers, same row counts, different columns — is the caller
  // breaking the value-only contract.
  const bool same_a = a.ptr.data() == checked_ptr_ &&
                      a.idx.data() == checked_idx_ &&
                      a.val.size() == idx_.size() && a.ptr == ptr_;
  if (!same_a) {
    if (a.rows != n_ || a.cols != n_ || a.ptr != ptr_ || a.idx != idx_ ||
        a.val.size() != idx_.size()) {
      throw std::invalid_argument("FactorPlan::factorize: pattern mismatch");
    }
  }
  const bool same_f =
      f.l.idx.data() == checked_lidx_ && f.u.idx.data() == checked_uidx_ &&
      f.l.val.size() == static_cast<std::size_t>(lptr_.back()) &&
      f.u.val.size() == static_cast<std::size_t>(uptr_.back()) &&
      f.l.ptr == lptr_ && f.u.ptr == uptr_;
  if (!same_f) {
    if (f.l.rows != n_ || f.u.rows != n_ || f.l.ptr != lptr_ ||
        f.u.ptr != uptr_ ||
        f.l.val.size() != static_cast<std::size_t>(lptr_.back()) ||
        f.u.val.size() != static_cast<std::size_t>(uptr_.back()) ||
        !split_idx_matches(f)) {
      throw std::invalid_argument(
          "FactorPlan::factorize: factor pattern mismatch (use "
          "allocate_factors())");
    }
  }
  checked_ptr_ = a.ptr.data();
  checked_idx_ = a.idx.data();
  checked_lidx_ = f.l.idx.data();
  checked_uidx_ = f.u.idx.data();
  FactorStats stats;
  if (n_ == 0) return stats;

  aval_ = a.val.data();
  lval_ = f.l.val.data();
  uval_ = f.u.val.data();

  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  // kShift escalation mirrors ilu0(a, pivot): rerun the whole numeric
  // phase with a larger substitute until the factors come out finite (a
  // shifted pivot can still overflow later rows through a huge lik).
  // kThrow and kReplace never take a second pass.
  shift_sigma_ = opts_.pivot.initial_shift;
  std::uint64_t shifts = 0;
  int pass = 0;
  for (;;) {
    ++pass;
    core_.reset(core_.dag(0));
    bad_row_.store(-1, std::memory_order_relaxed);
    shift_count_.store(0, std::memory_order_relaxed);
    // A worker fault (injected fault, stall watchdog, ...) poisons the
    // plan and rethrows here: partial factors are garbage.
    const core::DoacrossStats pass_stats = core_.dispatch(region_);
    stats.wait_episodes += pass_stats.wait_episodes;
    stats.wait_rounds += pass_stats.wait_rounds;

    // Pivot failures under kThrow are recorded in-region (throwing there
    // would strand peers spinning on the bad row's flag) and reported
    // here; the row is the same one the sequential loop throws on first.
    // This does NOT poison the plan: a refactorize with good values
    // rewrites every factor value and recovers it.
    const index_t bad = bad_row_.load(std::memory_order_relaxed);
    if (bad >= 0) {
      throw std::runtime_error(
          "FactorPlan::factorize: zero/invalid pivot produced at row " +
          std::to_string(bad));
    }
    shifts = shift_count_.load(std::memory_order_relaxed);
    if (shifts == 0 || opts_.pivot.policy != PivotPolicy::kShift) break;
    bool finite = true;
    const std::size_t lnnz = static_cast<std::size_t>(lptr_.back());
    const std::size_t unnz = static_cast<std::size_t>(uptr_.back());
    for (std::size_t k = 0; k < lnnz && finite; ++k) {
      finite = std::isfinite(lval_[k]);
    }
    for (std::size_t k = 0; k < unnz && finite; ++k) {
      finite = std::isfinite(uval_[k]);
    }
    if (finite) break;
    if (pass >= opts_.pivot.max_passes) {
      throw std::runtime_error(
          "FactorPlan::factorize: diagonal shift failed to produce finite "
          "factors after " +
          std::to_string(pass) + " passes");
    }
    shift_sigma_ *= opts_.pivot.shift_growth;
  }
  const clock::time_point t1 = clock::now();
  stats.factor_seconds = std::chrono::duration<double>(t1 - t0).count();
  // Race bookkeeping only after a fully successful numeric phase: a
  // fault poisons the plan above without touching the race, and a pivot
  // throw returns before this point — neither feeds the cache.
  core_.end_epoch(stats.factor_seconds, /*order=*/false);
  stats.pivot_shifts = shifts;
  stats.pivot_shift =
      shifts != 0 ? (opts_.pivot.policy == PivotPolicy::kReplace
                         ? opts_.pivot.replacement
                         : shift_sigma_)
                  : 0.0;
  stats.shift_passes = pass;
  telemetry_.total_pivot_shifts += shifts;
  if (shifts != 0) telemetry_.last_shift = stats.pivot_shift;
  ++factorizations_;
  return stats;
}

}  // namespace pdx::sparse
