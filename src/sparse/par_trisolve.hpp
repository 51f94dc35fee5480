// par_trisolve.hpp — parallel sparse triangular solves (paper §3.2).
//
// Three executors for `L y = rhs`:
//
//   trisolve_doacross       — the preprocessed doacross applied to Fig. 7.
//     The left-hand side subscript is the identity (y(i) written by
//     iteration i), the §2.3 linear-subscript case with c = 1, d = 0: no
//     iter table is needed and the "inspector" is free. Every reference
//     y(column(j)) with column(j) < i is a true dependence resolved by a
//     busy wait on the producer's ready flag; the committed value is read
//     straight from y (each offset is written exactly once, so no ynew
//     shadow or copy-back is needed — writes are published by the flag).
//
//   trisolve_doacross (with order) — same executor, iterations issued in a
//     doconsider order (sparse/levels.hpp). Dependencies are unchanged;
//     waiting shrinks because producers sit earlier in the schedule.
//
//   trisolve_levelsched     — classic level-scheduled execution: one
//     barrier per wavefront, no flags at all. The ablation baseline of
//     bench E7.
//
// All three produce bitwise-identical results to trisolve_lower_seq.
// Beside them live trisolve_doacross_multi (the Table 1 harness) and
// trisolve_upper_doacross (plan_reuse's "unplanned" row). This file holds
// only validation and row bodies: the doacross entry points run on the
// Figure 2 executor, core::doacross_rows (core/simple_doacross.hpp), and
// trisolve_levelsched on core::level_walk — the walks DagPlan runs too.
// Both lower solves share one row body, lower_row. Like the core paper
// engines, the rows are noexcept, so a throw terminates the process
// instead of leaving peers spinning on a flag that is never set. These
// unplanned executors serve the paper-reproduction benches; production
// solves run through sparse::TrisolvePlan.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

#include "core/doacross_stats.hpp"
#include "core/doconsider.hpp"
#include "core/ready_table.hpp"
#include "core/simple_doacross.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/trisolve.hpp"

namespace pdx::sparse {

struct TrisolveOptions {
  unsigned nthreads = 0;
  rt::Schedule schedule = rt::Schedule::dynamic();
  /// Optional doconsider execution order (order[k] = row solved at
  /// position k); must be a valid schedule for the factor's dependence DAG.
  const index_t* order = nullptr;
  /// Machine-emulation knob (see sparse/trisolve.hpp): extra dependent
  /// flops per off-diagonal term, identical to the sequential baseline's.
  int work_reps = 0;
};

/// Row i of the lower solve: `wait(c)` before each read of y[c], the
/// off-diagonal terms in stored order, then the divide by the diagonal
/// (stored last). trisolve_doacross passes a flag wait and
/// trisolve_levelsched core::NoWait; both equal trisolve_lower_seq's row.
template <class Wait>
inline void lower_row(const Csr& l, const double* rhs, double* y,
                      int work_reps, index_t i, Wait& wait) noexcept {
  double acc = rhs[i];
  const index_t k_end = l.row_end(i) - 1;  // diagonal last
  for (index_t kk = l.row_begin(i); kk < k_end; ++kk) {
    const index_t c = l.idx[static_cast<std::size_t>(kk)];
    wait(c);
    acc -= l.val[static_cast<std::size_t>(kk)] * y[c];
    if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
  }
  y[i] = acc / l.val[static_cast<std::size_t>(k_end)];
}

/// The Figure 2 executor's view of the options (work_reps is the rows').
inline core::SimpleDoacrossOptions executor_options(
    const TrisolveOptions& o) noexcept {
  return {.nthreads = o.nthreads, .schedule = o.schedule, .order = o.order};
}

/// Preprocessed-doacross lower solve. L must be lower triangular, sorted,
/// diagonal stored last in each row.
template <core::ReadyTableLike Ready = core::DenseReadyTable>
core::DoacrossStats trisolve_doacross(rt::ThreadPool& pool, const Csr& l,
                                      std::span<const double> rhs,
                                      std::span<double> y,
                                      Ready& ready,
                                      const TrisolveOptions& opts = {}) {
  if (l.rows != l.cols) throw std::invalid_argument("trisolve: not square");
  if (static_cast<index_t>(rhs.size()) < l.rows ||
      static_cast<index_t>(y.size()) < l.rows) {
    throw std::invalid_argument("trisolve: vector size mismatch");
  }
  const double* rhs_p = rhs.data();
  double* yp = y.data();
  const int work_reps = opts.work_reps;
  return core::doacross_rows(
      pool, l.rows, false, ready, executor_options(opts),
      [&](index_t i, auto& wait) noexcept {
        lower_row(l, rhs_p, yp, work_reps, i, wait);
      });
}

/// Convenience overload owning a throwaway flag table.
inline core::DoacrossStats trisolve_doacross(rt::ThreadPool& pool,
                                             const Csr& l,
                                             std::span<const double> rhs,
                                             std::span<double> y,
                                             const TrisolveOptions& opts = {}) {
  core::DenseReadyTable ready(l.rows);
  return trisolve_doacross(pool, l, rhs, y, ready, opts);
}

/// Multi-right-hand-side preprocessed-doacross lower solve (row-major
/// layout as in trisolve_lower_seq_multi). One ready flag per row guards
/// all nrhs values of that row; per-row work scales by nrhs while the
/// synchronization cost stays fixed — the work/overhead knob used by the
/// Table 1 harness. Bitwise equal to trisolve_lower_seq_multi.
template <core::ReadyTableLike Ready = core::DenseReadyTable>
core::DoacrossStats trisolve_doacross_multi(rt::ThreadPool& pool,
                                            const Csr& l,
                                            std::span<const double> rhs,
                                            std::span<double> y, index_t nrhs,
                                            Ready& ready,
                                            const TrisolveOptions& opts = {}) {
  if (l.rows != l.cols) throw std::invalid_argument("trisolve: not square");
  if (nrhs < 1) throw std::invalid_argument("trisolve: nrhs must be >= 1");
  if (static_cast<index_t>(rhs.size()) < l.rows * nrhs ||
      static_cast<index_t>(y.size()) < l.rows * nrhs) {
    throw std::invalid_argument("trisolve: vector size mismatch");
  }
  const double* rhs_p = rhs.data();
  double* yp = y.data();
  return core::doacross_rows(
      pool, l.rows, false, ready, executor_options(opts),
      [&](index_t i, auto& wait) noexcept {
        double* yi = yp + i * nrhs;
        const double* bi = rhs_p + i * nrhs;
        for (index_t r = 0; r < nrhs; ++r) yi[r] = bi[r];
        const index_t k_end = l.row_end(i) - 1;
        for (index_t kk = l.row_begin(i); kk < k_end; ++kk) {
          const index_t c = l.idx[static_cast<std::size_t>(kk)];
          wait(c);
          const double a = l.val[static_cast<std::size_t>(kk)];
          const double* yc = yp + c * nrhs;
          for (index_t r = 0; r < nrhs; ++r) yi[r] -= a * yc[r];
        }
        const double d = l.val[static_cast<std::size_t>(k_end)];
        for (index_t r = 0; r < nrhs; ++r) yi[r] /= d;
      });
}

/// Preprocessed-doacross *upper* (backward) solve. U must be upper
/// triangular, sorted, diagonal stored first in each row. Default
/// execution order is the source order of the backward solve (row n-1
/// first); `opts.order` may supply an upper_solve_reordering. Off-diagonal
/// accumulation runs in ascending column order, exactly like
/// trisolve_upper_seq, so results are bitwise identical.
template <core::ReadyTableLike Ready = core::DenseReadyTable>
core::DoacrossStats trisolve_upper_doacross(rt::ThreadPool& pool,
                                            const Csr& u,
                                            std::span<const double> rhs,
                                            std::span<double> y, Ready& ready,
                                            const TrisolveOptions& opts = {}) {
  if (u.rows != u.cols) throw std::invalid_argument("trisolve: not square");
  if (static_cast<index_t>(rhs.size()) < u.rows ||
      static_cast<index_t>(y.size()) < u.rows) {
    throw std::invalid_argument("trisolve: vector size mismatch");
  }
  const double* rhs_p = rhs.data();
  double* yp = y.data();
  return core::doacross_rows(
      pool, u.rows, true, ready, executor_options(opts),
      [&](index_t i, auto& wait) noexcept {
        double acc = rhs_p[i];
        const index_t k_diag = u.row_begin(i);  // diagonal first
        for (index_t kk = k_diag + 1; kk < u.row_end(i); ++kk) {
          const index_t c = u.idx[static_cast<std::size_t>(kk)];
          wait(c);
          acc -= u.val[static_cast<std::size_t>(kk)] * yp[c];
        }
        yp[i] = acc / u.val[static_cast<std::size_t>(k_diag)];
      });
}

/// Convenience overload owning a throwaway flag table.
inline core::DoacrossStats trisolve_upper_doacross(
    rt::ThreadPool& pool, const Csr& u, std::span<const double> rhs,
    std::span<double> y, const TrisolveOptions& opts = {}) {
  core::DenseReadyTable ready(u.rows);
  return trisolve_upper_doacross(pool, u, rhs, y, ready, opts);
}

/// Level-scheduled lower solve: rows of one wavefront run as a doall;
/// a barrier separates consecutive wavefronts. `work_reps` as in
/// TrisolveOptions.
core::DoacrossStats trisolve_levelsched(rt::ThreadPool& pool, const Csr& l,
                                        std::span<const double> rhs,
                                        std::span<double> y,
                                        const core::Reordering& reorder,
                                        unsigned nthreads = 0,
                                        int work_reps = 0);

}  // namespace pdx::sparse
