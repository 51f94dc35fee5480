// blocked_doacross.hpp — strip-mined preprocessed doacross (paper §2.3).
//
// "It is possible to transform the original loop L into a pair of nested
//  loops L_outer and L_inner. The inner loop would range over contiguous
//  iterations of the original loop L [and be] parallelized using the
//  preprocessed doacross methods; L_outer is carried out sequentially.
//  Preprocessing and postprocessing ... is carried out before and after
//  each set of L_inner iterations. This transformation reduces memory
//  requirements because during each iteration of L_outer we can reuse
//  ready and iter."
//
// Our realization goes one step further than reuse: because the writer map
// is injective, within a strip there is a bijection between iterations and
// written offsets, so the ready flags and the ynew shadow can be indexed by
// *iteration-within-strip* and sized O(strip) instead of O(value_space).
// Only the iter table still spans the value space, and it is reused across
// strips exactly as the paper describes (reset cost O(strip writes)).
//
// Cross-strip dependences need no flags at all: each strip's postprocessing
// copies ynew back into y before the next strip starts (the strips are
// separated by barriers), so a later strip's reads find iter == MAXINT and
// take the plain `y` path, which already holds the committed value.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/doacross_stats.hpp"
#include "core/hash_iter_table.hpp"
#include "core/iter_table.hpp"
#include "core/ready_table.hpp"
#include "core/walk.hpp"
#include "runtime/aligned.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_pool.hpp"

namespace pdx::core {

/// Dependence-resolving accessor for the strip-mined executor. Same
/// interface as core::Iteration, but ready/ynew are strip-local. `Iter`
/// is either the dense IterTable or the O(strip)-memory HashIterTable.
template <class T, class Wait, class Iter = IterTable>
class StripIteration {
 public:
  StripIteration(index_t i, index_t strip_begin, index_t lhs_off,
                 const Iter* iter, Wait& wait, const T* yold,
                 const T* ynew_strip) noexcept
      : i_(i),
        strip_begin_(strip_begin),
        lhs_off_(lhs_off),
        acc_(yold[lhs_off]),
        iter_(iter),
        wait_(&wait),
        yold_(yold),
        ynew_(ynew_strip) {}

  index_t index() const noexcept { return i_; }
  index_t lhs_index() const noexcept { return lhs_off_; }
  T& lhs() noexcept { return acc_; }

  T read(index_t offset) noexcept {
    const index_t w = (*iter_)[offset];
    if (w == i_) return acc_;
    if (w < i_) {
      // Within the current strip by construction (iter holds only this
      // strip's writers), so the strip-local slot is w - strip_begin.
      const index_t slot = w - strip_begin_;
      (*wait_)(slot);
      return ynew_[slot];
    }
    return yold_[offset];  // antidep, later strip, or never written
  }

 private:
  const index_t i_;
  const index_t strip_begin_;
  const index_t lhs_off_;
  T acc_;
  const Iter* iter_;
  Wait* wait_;
  const T* yold_;
  const T* ynew_;
};

/// Options for the strip-mined variant (no reordering: the sequential
/// outer loop already fixes the strip order).
struct BlockedOptions {
  unsigned nthreads = 0;
  rt::Schedule schedule = rt::Schedule::static_block();
};

/// `Iter` selects the last-writer table: the dense, value-space-sized
/// IterTable (reused across strips — the paper's own formulation) or the
/// O(strip)-memory HashIterTable (see hash_iter_table.hpp); with the
/// latter the entire arena footprint is bounded by the strip length.
template <class T, class Ready = DenseReadyTable, class Iter = IterTable>
class BlockedDoacross {
 public:
  /// `value_space` sizes the dense iter table (ignored by the hash
  /// flavour); the ready/ynew arenas are sized by the strip at run time.
  BlockedDoacross(rt::ThreadPool& pool, index_t value_space)
      : pool_(&pool), value_space_(value_space) {
    if constexpr (kDenseIter) {
      iter_.ensure_size(value_space);
    }
  }

  index_t value_space() const noexcept { return value_space_; }

  /// Bytes of strip-scaled arena memory (ready flags + ynew shadow), the
  /// part both iter flavours share.
  static std::size_t strip_arena_bytes(index_t strip) {
    return static_cast<std::size_t>(strip) * (sizeof(T) + 1);
  }

  /// Bytes held by the last-writer table.
  std::size_t iter_memory_bytes() const noexcept {
    if constexpr (kDenseIter) {
      return static_cast<std::size_t>(iter_.size()) * sizeof(index_t);
    } else {
      return iter_.memory_bytes();
    }
  }

  template <class Body>
  DoacrossStats run(std::span<const index_t> writer, std::span<T> y,
                    Body&& body, index_t strip,
                    const BlockedOptions& opts = {}) {
    const index_t n = static_cast<index_t>(writer.size());
    if (strip <= 0) throw std::invalid_argument("strip must be positive");
    value_space_ = std::max(value_space_, static_cast<index_t>(y.size()));
    if constexpr (kDenseIter) {
      iter_.ensure_size(static_cast<index_t>(y.size()));
    } else {
      iter_.reserve_writes(strip);  // also wipes for the first strip
    }
    DoacrossStats stats;
    if (n == 0) return stats;

    const unsigned nth = pool_->clamp_threads(opts.nthreads);
    ready_.ensure_size(strip);
    ready_.begin_epoch();
    if (static_cast<index_t>(ynew_strip_.size()) < strip) {
      ynew_strip_.resize(static_cast<std::size_t>(strip));
    }

    rt::Barrier barrier(nth);
    std::atomic<index_t> cursor{0};
    std::vector<rt::Padded<std::uint64_t>> episodes(nth), rounds(nth);

    using clock = std::chrono::steady_clock;
    const index_t* wr = writer.data();
    T* yp = y.data();
    T* ynp = ynew_strip_.data();

    // Per-thread accumulated phase seconds, measured by thread 0 only.
    double t_ins = 0.0, t_exe = 0.0, t_post = 0.0;

    pool_->parallel_region(nth, [&](unsigned tid, unsigned nthreads) {
      TallyWait<Ready> wait{&ready_};
      clock::time_point p0, p1, p2, p3;
      barrier.arrive_and_wait();  // rendezvous: exclude pool wake-up
      for (index_t b = 0; b < n; b += strip) {
        const index_t e = std::min(b + strip, n);
        const index_t len = e - b;
        if (tid == 0) p0 = clock::now();

        // Inspector over this strip.
        const rt::IterRange pre = rt::static_block_range(len, tid, nthreads);
        for (index_t k = pre.begin; k < pre.end; ++k) {
          iter_.record(wr[b + k], b + k);
        }
        barrier.arrive_and_wait();
        if (tid == 0) p1 = clock::now();

        // Executor over this strip: flags and ynew by position k,
        // iterations b + k. noexcept: see DoacrossEngine::run — a throwing
        // body would deadlock the phase barriers, so fail fast instead.
        flag_walk(opts.schedule, len, tid, nthreads, &cursor, nullptr, false,
                  ready_, [&](index_t k, index_t) noexcept {
                    const index_t i = b + k;
                    StripIteration<T, TallyWait<Ready>, Iter> it(
                        i, b, wr[i], &iter_, wait, yp, ynp);
                    body(it);
                    ynp[k] = it.lhs();
                  });
        barrier.arrive_and_wait();
        if (tid == 0) p2 = clock::now();

        // Postprocessor over this strip; thread 0 also rewinds the dynamic
        // cursor and the ready epoch for the next strip.
        const rt::IterRange post = rt::static_block_range(len, tid, nthreads);
        for (index_t k = post.begin; k < post.end; ++k) {
          const index_t i = b + k;
          yp[wr[i]] = ynp[k];
          iter_.clear(wr[i]);
          ready_.clear(k);
        }
        if (tid == 0) {
          cursor.store(0, std::memory_order_relaxed);
          ready_.begin_epoch();
          iter_.begin_epoch();  // hash flavour wipes; dense is a no-op
        }
        barrier.arrive_and_wait();
        if (tid == 0) {
          p3 = clock::now();
          t_ins += std::chrono::duration<double>(p1 - p0).count();
          t_exe += std::chrono::duration<double>(p2 - p1).count();
          t_post += std::chrono::duration<double>(p3 - p2).count();
        }
      }
      episodes[tid].value = wait.episodes;
      rounds[tid].value = wait.rounds;
    });

    stats.inspect_seconds = t_ins;
    stats.execute_seconds = t_exe;
    stats.post_seconds = t_post;
    for (unsigned t = 0; t < nth; ++t) {
      stats.wait_episodes += episodes[t].value;
      stats.wait_rounds += rounds[t].value;
    }
    return stats;
  }

  const Iter& iter_table() const noexcept { return iter_; }

 private:
  static constexpr bool kDenseIter = std::is_same_v<Iter, IterTable>;

  rt::ThreadPool* pool_;
  index_t value_space_ = 0;
  Iter iter_;
  Ready ready_;  // strip-sized, iteration-indexed
  std::vector<T, rt::CacheAlignedAllocator<T>> ynew_strip_;
};

/// The fully memory-bounded strip-mined doacross: every arena (last-writer
/// table, ready flags, ynew shadow) is O(strip), independent of the value
/// space.
template <class T>
using CompactBlockedDoacross = BlockedDoacross<T, DenseReadyTable,
                                               HashIterTable>;

}  // namespace pdx::core
