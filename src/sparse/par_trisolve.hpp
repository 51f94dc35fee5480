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
// trisolve_upper_doacross (plan_reuse's "unplanned" row). The three
// doacross entry points differ only in their row body: each validates its
// arguments and hands that body to the one executor, doacross_rows. Like
// the core paper engines, the rows are noexcept, so a throw terminates
// the process instead of leaving peers spinning on a flag that is never
// set. These unplanned executors serve the paper-reproduction benches;
// production solves run through sparse::TrisolvePlan.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/doacross_stats.hpp"
#include "core/doconsider.hpp"
#include "core/ready_table.hpp"
#include "runtime/aligned.hpp"
#include "runtime/barrier.hpp"
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

/// Anything that provides the ready-flag protocol of core/ready_table.hpp.
template <class R>
concept ReadyTableLike = requires(R r, const R cr, index_t i) {
  r.ensure_size(i);
  r.begin_epoch();
  r.mark_done(i);
  { cr.wait_done(i) } -> std::convertible_to<std::uint64_t>;
  r.clear(i);
};

/// The unplanned preprocessed-doacross executor behind every entry point
/// below: one fork/join region that solves row i at each of n positions
/// (`opts.order[k]`, else k, or n-1-k when `reverse`) under
/// `opts.schedule`, then publishes it with `ready.mark_done(i)`.
/// `row(i, wait)` computes row i; it calls `wait(c)` before reading the
/// value of row c, which blocks until c is published and tallies the
/// wait into the returned stats.
template <ReadyTableLike Ready, class Row>
core::DoacrossStats doacross_rows(rt::ThreadPool& pool, index_t n,
                                  bool reverse, Ready& ready,
                                  const TrisolveOptions& opts,
                                  const Row& row) {
  core::DoacrossStats stats;
  if (n == 0) return stats;

  const unsigned nth = pool.clamp_threads(opts.nthreads);
  ready.ensure_size(n);
  ready.begin_epoch();

  rt::Barrier barrier(nth);
  std::atomic<index_t> cursor{0};
  std::vector<rt::Padded<std::uint64_t>> episodes(nth), rounds(nth);

  using clock = std::chrono::steady_clock;
  clock::time_point t0, t1, t2;
  const index_t* order = opts.order;

  pool.parallel_region(nth, [&](unsigned tid, unsigned nthreads) {
    barrier.arrive_and_wait();  // rendezvous: exclude pool wake-up
    if (tid == 0) t0 = clock::now();

    std::uint64_t my_episodes = 0, my_rounds = 0;
    const auto wait = [&](index_t c) noexcept {
      const std::uint64_t r = ready.wait_done(c);
      if (r != 0) {
        ++my_episodes;
        my_rounds += r;
      }
    };
    // noexcept: see DoacrossEngine::run — fail fast over deadlock.
    auto solve_row = [&](index_t k) noexcept {
      const index_t i = order ? order[k] : reverse ? n - 1 - k : k;
      row(i, wait);
      ready.mark_done(i);  // release-publishes the row's stores
    };
    rt::schedule_run(opts.schedule, n, tid, nthreads, &cursor, solve_row);
    episodes[tid].value = my_episodes;
    rounds[tid].value = my_rounds;
    barrier.arrive_and_wait();
    if (tid == 0) t1 = clock::now();

    // Postprocessing (paper Fig. 3): reset the flags for reuse. An
    // epoch-reset table already invalidated everything in begin_epoch(),
    // so the sweep and the barrier fencing it are elided at compile time.
    if constexpr (!core::kEpochResetV<Ready>) {
      const rt::IterRange post = rt::static_block_range(n, tid, nthreads);
      for (index_t i = post.begin; i < post.end; ++i) ready.clear(i);
      barrier.arrive_and_wait();
    }
    if (tid == 0) t2 = clock::now();
  });

  stats.execute_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.post_seconds = std::chrono::duration<double>(t2 - t1).count();
  for (unsigned t = 0; t < nth; ++t) {
    stats.wait_episodes += episodes[t].value;
    stats.wait_rounds += rounds[t].value;
  }
  return stats;
}

/// Preprocessed-doacross lower solve. L must be lower triangular, sorted,
/// diagonal stored last in each row.
template <ReadyTableLike Ready = core::DenseReadyTable>
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
  return doacross_rows(
      pool, l.rows, false, ready, opts,
      [&](index_t i, const auto& wait) noexcept {
        double acc = rhs_p[i];
        const index_t k_end = l.row_end(i) - 1;  // diagonal last
        for (index_t kk = l.row_begin(i); kk < k_end; ++kk) {
          const index_t c = l.idx[static_cast<std::size_t>(kk)];
          wait(c);
          acc -= l.val[static_cast<std::size_t>(kk)] * yp[c];
          if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
        }
        yp[i] = acc / l.val[static_cast<std::size_t>(k_end)];
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
template <ReadyTableLike Ready = core::DenseReadyTable>
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
  return doacross_rows(
      pool, l.rows, false, ready, opts,
      [&](index_t i, const auto& wait) noexcept {
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
template <ReadyTableLike Ready = core::DenseReadyTable>
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
  return doacross_rows(
      pool, u.rows, true, ready, opts,
      [&](index_t i, const auto& wait) noexcept {
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
