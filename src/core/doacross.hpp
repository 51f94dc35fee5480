// doacross.hpp — the preprocessed doacross engine (paper §2.1–§2.2).
//
// Given a loop
//
//     do i = 1, N
//        y(a(i)) = f( y(b1(i)), y(b2(i)), ... )     -- offsets known only
//     end do                                         -- at execution time
//
// with no output dependences (a injective), DoacrossEngine::run executes it
// in parallel as one fork/join region with three barrier-separated phases:
//
//   1. inspector      parallel do i: iter(a(i)) = i            (Fig. 3)
//   2. executor       parallel do i: body resolves reads through the
//                     iter/ready tables and commits ynew(a(i)) (Fig. 5)
//   3. postprocessor  parallel do i: y(a(i)) = ynew(a(i));
//                     iter(a(i)) = MAXINT; ready(a(i)) = NOTDONE (Fig. 3)
//
// All three phases are fully parallel — the paper's stated requirement for
// execution-time preprocessing. The engine owns the iter/ready/ynew arenas
// and reuses them across calls; the postprocessing sweep (not a full-table
// reset) is what makes that reuse cheap.
//
// The optional `order` lets a doconsider-style transformation (reference
// [4]) execute iterations in a dependence-friendlier sequence. The order
// must be a valid schedule: every true dependence's producer appears before
// its consumers (see core/doconsider.hpp), otherwise the busy waits can
// deadlock.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/doacross_stats.hpp"
#include "core/iter_table.hpp"
#include "core/iteration.hpp"
#include "core/ready_table.hpp"
#include "core/walk.hpp"
#include "runtime/aligned.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_pool.hpp"

namespace pdx::core {

struct DoacrossOptions {
  /// Members of the parallel region; 0 → the pool's full width.
  unsigned nthreads = 0;
  /// Iteration→processor assignment for the *executor* phase. The
  /// inspector and postprocessor always use a static block split (they are
  /// uniform). Any monotone schedule is deadlock-free (see DESIGN.md §6).
  rt::Schedule schedule = rt::Schedule::static_block();
  /// Optional execution order: execute source iteration order[k] at
  /// position k. Must be a valid schedule for the loop's dependences.
  /// nullptr → source order. The pointer must stay valid during run().
  const index_t* order = nullptr;
  /// Validate the writer map (injective, in range) before running.
  /// O(value_space); intended for tests and first runs.
  bool validate = false;
};

template <class T, class Ready = DenseReadyTable>
class DoacrossEngine {
 public:
  /// `pool`   — parallel region provider (kept by reference).
  /// `value_space` — exclusive upper bound on every offset the loops will
  ///                 read or write; sizes the iter/ready/ynew arenas.
  DoacrossEngine(rt::ThreadPool& pool, index_t value_space)
      : pool_(&pool) {
    reserve(value_space);
  }

  /// Grow arenas to a new value space (never shrinks).
  void reserve(index_t value_space) {
    iter_.ensure_size(value_space);
    ready_.ensure_size(value_space);
    if (static_cast<index_t>(ynew_.size()) < value_space) {
      ynew_.resize(static_cast<std::size_t>(value_space));
    }
  }

  index_t value_space() const noexcept { return iter_.size(); }

  /// Execute one preprocessed doacross loop.
  ///
  /// `writer`  — a(i) for i in [0, N); must be injective (no output deps).
  /// `y`       — the data array, length >= value_space. On return the
  ///             written elements hold their new values (postprocessing
  ///             copied ynew back, paper Fig. 3).
  /// `body`    — callable `void(Iteration<T, TallyWait<Ready>>&)`; reads
  ///             through Iteration::read (waiting on ready(offset) for a
  ///             true dependence) and accumulates into Iteration::lhs.
  template <class Body>
  DoacrossStats run(std::span<const index_t> writer, std::span<T> y,
                    Body&& body, const DoacrossOptions& opts = {}) {
    const index_t n = static_cast<index_t>(writer.size());
    // The loop's value space is y's extent; grow the arenas to cover it.
    // A larger arena left over from a previous loop is harmless: entries
    // beyond this loop's offsets stay never-written/not-done.
    reserve(static_cast<index_t>(y.size()));
    if (opts.validate) {
      const index_t bad =
          find_writer_conflict(writer, static_cast<index_t>(y.size()));
      if (bad >= 0) {
        throw std::invalid_argument(
            "DoacrossEngine::run: writer map has an output dependence or "
            "out-of-range offset at iteration " +
            std::to_string(bad));
      }
    }
    DoacrossStats stats;
    if (n == 0) return stats;

    const unsigned nth = pool_->clamp_threads(opts.nthreads);
    ready_.begin_epoch();

    // Engine-owned synchronization state, reused across calls just like
    // the iter/ready/ynew arenas: no per-run Barrier construction or
    // episodes/rounds allocation (they grow only when the region widens).
    barrier_.reset(nth);
    cursor_.store(0, std::memory_order_relaxed);
    if (episodes_.size() < nth) {
      episodes_.resize(nth);
      rounds_.resize(nth);
    }

    using clock = std::chrono::steady_clock;
    clock::time_point t0, t1, t2, t3;

    const index_t* order = opts.order;
    const index_t* wr = writer.data();
    T* yp = y.data();
    T* ynp = ynew_.data();

    pool_->parallel_region(nth, [&](unsigned tid, unsigned nthreads) {
      // Rendezvous before the clock starts: phase timings measure the
      // algorithm, not the pool's wake-up latency (the Multimax's
      // persistent workers had none to speak of either).
      barrier_.arrive_and_wait();
      if (tid == 0) t0 = clock::now();

      // ---- Phase 1: inspector (paper Fig. 3, preprocessing) ----------
      const rt::IterRange pre = rt::static_block_range(n, tid, nthreads);
      for (index_t i = pre.begin; i < pre.end; ++i) {
        iter_.record(wr[i], i);
      }
      barrier_.arrive_and_wait();
      if (tid == 0) t1 = clock::now();

      // ---- Phase 2: executor (paper Fig. 5) --------------------------
      // `noexcept`: an exception escaping one member mid-phase would
      // leave the others blocked at the next barrier; failing fast
      // (std::terminate) is the only safe behaviour. Bodies that can
      // fail should record the failure and return normally.
      // Not a core::flag_walk: the flag published is ready(a(i)), by
      // offset, not by iteration.
      TallyWait<Ready> wait{&ready_};
      auto run_one = [&](index_t k) noexcept {
        const index_t i = order ? order[k] : k;
        Iteration<T, TallyWait<Ready>> it(i, wr[i], iter_.data(), wait, yp,
                                          ynp);
        body(it);
        ynp[wr[i]] = it.lhs();
        ready_.mark_done(wr[i]);  // release: publishes the ynew store
      };
      rt::schedule_run(opts.schedule, n, tid, nthreads, &cursor_, run_one);
      episodes_[tid].value = wait.episodes;
      rounds_[tid].value = wait.rounds;
      barrier_.arrive_and_wait();
      if (tid == 0) t2 = clock::now();

      // ---- Phase 3: postprocessor (paper Fig. 3) ---------------------
      const rt::IterRange post = rt::static_block_range(n, tid, nthreads);
      for (index_t i = post.begin; i < post.end; ++i) {
        const index_t off = wr[i];
        yp[off] = ynp[off];  // yold(a(i)) = ynew(a(i))
        iter_.clear(off);    // iter(a(i)) = MAXINT
        ready_.clear(off);   // ready(a(i)) = NOTDONE
      }
      barrier_.arrive_and_wait();
      if (tid == 0) t3 = clock::now();
    });

    const auto secs = [](clock::time_point a, clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    stats.inspect_seconds = secs(t0, t1);
    stats.execute_seconds = secs(t1, t2);
    stats.post_seconds = secs(t2, t3);
    for (unsigned t = 0; t < nth; ++t) {
      stats.wait_episodes += episodes_[t].value;
      stats.wait_rounds += rounds_[t].value;
    }
    return stats;
  }

  /// The arenas, exposed for tests that verify the reuse invariant
  /// (everything pristine between runs).
  const IterTable& iter_table() const noexcept { return iter_; }
  const Ready& ready_table() const noexcept { return ready_; }

 private:
  rt::ThreadPool* pool_;
  IterTable iter_;
  Ready ready_;
  std::vector<T, rt::CacheAlignedAllocator<T>> ynew_;
  // Reusable per-run synchronization state (run() is single-caller, like
  // the arenas above; concurrent run() on one engine was never legal).
  rt::Barrier barrier_{1};
  std::atomic<index_t> cursor_{0};
  std::vector<rt::Padded<std::uint64_t>> episodes_, rounds_;
};

/// Reference semantics: execute the same loop sequentially, in source
/// order, in place (reads see exactly the values the original loop would
/// see). The doacross must reproduce this bit-for-bit; tests rely on it.
template <class T, class Body>
void doacross_reference(std::span<const index_t> writer, std::span<T> y,
                        Body&& body) {
  const index_t n = static_cast<index_t>(writer.size());
  for (index_t i = 0; i < n; ++i) {
    // In the sequential loop every read simply sees y as it currently is.
    struct SeqIteration {
      index_t i;
      index_t lhs_off;
      T acc;
      T* y;
      index_t index() const noexcept { return i; }
      index_t lhs_index() const noexcept { return lhs_off; }
      T& lhs() noexcept { return acc; }
      T read(index_t off) noexcept {
        return off == lhs_off ? acc : y[off];
      }
    } it{i, writer[static_cast<std::size_t>(i)],
         y[writer[static_cast<std::size_t>(i)]], y.data()};
    body(it);
    y[it.lhs_off] = it.acc;
  }
}

}  // namespace pdx::core
