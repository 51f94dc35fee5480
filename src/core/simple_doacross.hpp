// simple_doacross.hpp — the paper's Figure 2: doacross with true
// dependences only, and the one executor that runs it.
//
// Before introducing the full preprocessed machinery, the paper presents
// the restricted case a(i) = i and b(i) < i — every reference to another
// iteration's element is a *true* dependence on an earlier iteration, so
// no iter table, no ynew shadow, and no antidependence handling are
// needed:
//
//     parallel do i = 1, N
//   S1:  while (ready(b(i)) .eq. NOTDONE) endwhile
//   S2:  y(i) = ... y(b(i))
//   S3:  ready(i) = DONE
//     end parallel do
//
// doacross_rows is that loop with the body left open: one fork/join
// region of a core::flag_walk, whose rows wait through a TallyWait, and
// the postprocessing sweep that resets the flags. Three callers run on
// it, each passing only a row body: simple_doacross (below — any body
// that writes y(i) and reads only offsets j < i, checked in debug
// builds), LinearDoacross (whose rows commit to a ynew shadow and whose
// `post` hook copies it back) and the unplanned sparse trisolves
// (sparse/par_trisolve.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/doacross_stats.hpp"
#include "core/ready_table.hpp"
#include "core/walk.hpp"
#include "runtime/aligned.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_pool.hpp"

namespace pdx::core {

/// Anything that provides the ready-flag protocol of core/ready_table.hpp.
template <class R>
concept ReadyTableLike = requires(R r, const R cr, index_t i) {
  r.ensure_size(i);
  r.begin_epoch();
  r.mark_done(i);
  { cr.wait_done(i) } -> std::convertible_to<std::uint64_t>;
  r.clear(i);
};

struct SimpleDoacrossOptions {
  unsigned nthreads = 0;
  rt::Schedule schedule = rt::Schedule::static_block();
  /// Optional valid execution order (producers before consumers).
  const index_t* order = nullptr;
};

/// The Figure 2 executor: one fork/join region that runs row i at each of
/// n positions (`opts.order[k]`, else k, or n-1-k when `reverse`) under
/// `opts.schedule`, then publishes it with `ready.mark_done(i)`.
/// `row(i, wait)` computes row i; it calls `wait(j)` before reading the
/// value of row j, which blocks until j is published and tallies the wait
/// into the returned stats. The postprocessing sweep (paper Fig. 3) then
/// calls `post(i)`, when given, and resets each flag. An epoch-reset table
/// already invalidated every flag in begin_epoch(), so without a `post`
/// the sweep and the barrier fencing it are elided at compile time.
template <ReadyTableLike Ready, class Row, class Post = std::nullptr_t>
DoacrossStats doacross_rows(rt::ThreadPool& pool, index_t n, bool reverse,
                            Ready& ready, const SimpleDoacrossOptions& opts,
                            const Row& row, const Post& post = nullptr) {
  constexpr bool kPost = !std::is_null_pointer_v<Post>;
  DoacrossStats stats;
  if (n == 0) return stats;

  const unsigned nth = pool.clamp_threads(opts.nthreads);
  ready.ensure_size(n);
  ready.begin_epoch();

  rt::Barrier barrier(nth);
  std::atomic<index_t> cursor{0};
  std::vector<rt::Padded<std::uint64_t>> episodes(nth), rounds(nth);

  using clock = std::chrono::steady_clock;
  clock::time_point t0, t1, t2;

  pool.parallel_region(nth, [&](unsigned tid, unsigned nthreads) {
    barrier.arrive_and_wait();  // rendezvous: exclude pool wake-up
    if (tid == 0) t0 = clock::now();

    TallyWait<Ready> wait{&ready};
    // noexcept: see DoacrossEngine::run — fail fast over deadlock.
    flag_walk(opts.schedule, n, tid, nthreads, &cursor, opts.order, reverse,
              ready, [&](index_t, index_t i) noexcept { row(i, wait); });
    episodes[tid].value = wait.episodes;
    rounds[tid].value = wait.rounds;
    barrier.arrive_and_wait();
    if (tid == 0) t1 = clock::now();

    if constexpr (kPost || !kEpochResetV<Ready>) {
      const rt::IterRange part = rt::static_block_range(n, tid, nthreads);
      for (index_t i = part.begin; i < part.end; ++i) {
        if constexpr (kPost) post(i);
        ready.clear(i);
      }
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

/// Accessor for the Figure 2 executor: reads wait on the producer's flag
/// and then load y directly (writes are published by the release flag).
template <class T, class Wait>
class SimpleIteration {
 public:
  SimpleIteration(index_t i, Wait& wait, const T* y) noexcept
      : i_(i), acc_(), wait_(&wait), y_(y) {}

  index_t index() const noexcept { return i_; }
  index_t lhs_index() const noexcept { return i_; }

  /// The value being computed for y(i); committed by the executor.
  T& lhs() noexcept { return acc_; }

  /// Read y(j) for j < i: wait until iteration j is DONE (paper S1).
  T read(index_t j) noexcept {
    assert(j < i_ && "Figure 2 form requires b(i) < i (true dependences)");
    (*wait_)(j);
    return y_[j];
  }

  /// Read y(i)'s old value (no wait; the writer is this iteration).
  T read_own() const noexcept { return y_[i_]; }

 private:
  const index_t i_;
  T acc_;
  Wait* wait_;
  const T* y_;
};

/// Execute `for i in [0, n): y[i] = body(i, reads of y[j<i])` in parallel
/// (paper Fig. 2). `ready` is reused across calls (reset during the
/// postprocessing sweep, or by the next call's begin_epoch). Results are
/// bitwise equal to sequential execution.
template <class T, ReadyTableLike Ready = DenseReadyTable, class Body>
DoacrossStats simple_doacross(rt::ThreadPool& pool, index_t n,
                              std::span<T> y, Ready& ready, Body&& body,
                              const SimpleDoacrossOptions& opts = {}) {
  if (n < 0) throw std::invalid_argument("simple_doacross: negative n");
  if (static_cast<index_t>(y.size()) < n) {
    throw std::invalid_argument("simple_doacross: y too small");
  }
  T* yp = y.data();
  return doacross_rows(pool, n, false, ready, opts,
                       [&](index_t i, TallyWait<Ready>& wait) noexcept {
                         SimpleIteration<T, TallyWait<Ready>> it(i, wait, yp);
                         body(it);
                         yp[i] = it.lhs();
                       });
}

/// Sequential reference for the Figure 2 form.
template <class T, class Body>
void simple_doacross_reference(index_t n, std::span<T> y, Body&& body) {
  struct SeqIt {
    index_t i;
    T acc;
    T* y;
    index_t index() const noexcept { return i; }
    index_t lhs_index() const noexcept { return i; }
    T& lhs() noexcept { return acc; }
    T read(index_t j) noexcept {
      assert(j < i);
      return y[j];
    }
    T read_own() const noexcept { return y[i]; }
  };
  for (index_t i = 0; i < n; ++i) {
    SeqIt it{i, T{}, y.data()};
    body(it);
    y[static_cast<std::size_t>(i)] = it.acc;
  }
}

}  // namespace pdx::core
