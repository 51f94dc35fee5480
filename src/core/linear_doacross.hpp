// linear_doacross.hpp — inspector-free doacross for linear writer maps
// (paper §2.3, second variant).
//
// "When the left hand side arrays are indexed by a linear subscript
//  function (a(i) = c*i + d) it is possible to eliminate the execution
//  time preprocessing phase along with the need to allocate storage for
//  array iter. We can determine whether y(off) can be written to by
//  testing whether (off - d) mod c == 0; if a write is carried out it
//  occurs during loop iteration (off - d) / c."
//
// Consequences realized here:
//   * no inspector phase (stats.inspect_seconds == 0 identically);
//   * no iter table — the writer of an offset is computed arithmetically;
//   * ready flags and the ynew shadow are indexed by *iteration* (the
//     writer map is a bijection onto its image), so arena memory is O(N)
//     regardless of the value space;
//   * the executor is the Figure 2 one (core::doacross_rows): the body
//     commits to ynew(i), and the postprocessing sweep's `post` hook
//     copies ynew(i) back to y(c*i + d).
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "core/doacross_stats.hpp"
#include "core/iter_table.hpp"
#include "core/ready_table.hpp"
#include "core/simple_doacross.hpp"
#include "core/walk.hpp"
#include "runtime/aligned.hpp"
#include "runtime/thread_pool.hpp"

namespace pdx::core {

/// The linear writer map a(i) = c*i + d over i in [0, n), with the paper's
/// closed-form inverse.
struct LinearWriter {
  index_t c = 1;  ///< stride; must be >= 1 (injectivity)
  index_t d = 0;  ///< base offset; must be >= 0 (writes stay inside y)
  index_t n = 0;  ///< iteration count; must be >= 0

  index_t operator()(index_t i) const noexcept { return c * i + d; }

  /// Iteration that writes `off`, or kNeverWritten. This is the paper's
  /// "(off - d) mod c == 0, write occurs during iteration (off - d)/c".
  index_t writer_of(index_t off) const noexcept {
    const index_t t = off - d;
    if (t < 0 || t % c != 0) return kNeverWritten;
    const index_t i = t / c;
    return i < n ? i : kNeverWritten;
  }

  /// Smallest value space that covers all written offsets.
  index_t written_extent() const noexcept { return n == 0 ? 0 : c * (n - 1) + d + 1; }
};

/// Accessor with the same duck-typed interface as core::Iteration, but
/// dependence resolution by arithmetic instead of table lookup.
///
/// `StaticC` specializes the stride at compile time (0 = runtime stride):
/// the hot path divides by c on *every read*, and an integer division by a
/// runtime divisor costs more than the iter-table load it replaces — with
/// a constant divisor the compiler strength-reduces it to shifts/masks and
/// the §2.3 elimination pays off. LinearDoacross dispatches to common
/// strides automatically.
template <class T, class Wait, index_t StaticC = 0>
class LinearIteration {
 public:
  LinearIteration(index_t i, LinearWriter w, Wait& wait, const T* yold,
                  const T* ynew_by_iter) noexcept
      : i_(i),
        w_(w),
        acc_(yold[w(i)]),
        wait_(&wait),
        yold_(yold),
        ynew_(ynew_by_iter) {}

  index_t index() const noexcept { return i_; }
  index_t lhs_index() const noexcept { return w_(i_); }
  T& lhs() noexcept { return acc_; }

  T read(index_t offset) noexcept {
    const index_t c = StaticC > 0 ? StaticC : w_.c;
    const index_t t = offset - w_.d;
    if (t >= 0 && t % c == 0) {
      const index_t w = t / c;
      if (w < w_.n) {
        if (w == i_) return acc_;
        if (w < i_) {
          (*wait_)(w);
          return ynew_[w];
        }
        return yold_[offset];  // antidependence
      }
    }
    return yold_[offset];  // never written
  }

 private:
  const index_t i_;
  const LinearWriter w_;
  T acc_;
  Wait* wait_;
  const T* yold_;
  const T* ynew_;
};

/// The §2.3 loop on the Figure 2 executor (core::doacross_rows): rows
/// commit to the iteration-indexed ynew shadow, and the postprocessing
/// sweep copies it back to y(c*i + d).
template <class T, ReadyTableLike Ready = DenseReadyTable>
class LinearDoacross {
 public:
  explicit LinearDoacross(rt::ThreadPool& pool) : pool_(&pool) {}

  /// Execute the loop `for i: y[c*i + d] = f(reads)` with runtime-resolved
  /// reads. `y` must cover every read offset and the written extent.
  /// Common strides dispatch to compile-time-specialized executors (the
  /// per-read division strength-reduces to shifts).
  template <class Body>
  DoacrossStats run(LinearWriter w, std::span<T> y, Body&& body,
                    const SimpleDoacrossOptions& opts = {}) {
    if (w.c < 1) throw std::invalid_argument("LinearWriter: c must be >= 1");
    if (w.d < 0) throw std::invalid_argument("LinearWriter: d must be >= 0");
    if (w.n < 0) throw std::invalid_argument("LinearWriter: n must be >= 0");
    if (w.n > 0 && static_cast<index_t>(y.size()) < w.written_extent()) {
      throw std::invalid_argument("LinearDoacross::run: y too small");
    }
    switch (w.c) {
      case 1:
        return run_impl<1>(w, y, body, opts);
      case 2:
        return run_impl<2>(w, y, body, opts);
      case 3:
        return run_impl<3>(w, y, body, opts);
      case 4:
        return run_impl<4>(w, y, body, opts);
      default:
        return run_impl<0>(w, y, body, opts);
    }
  }

  /// The iteration-indexed flags, exposed for tests that verify the
  /// reuse invariant.
  const Ready& ready_table() const noexcept { return ready_; }

 private:
  template <index_t StaticC, class Body>
  DoacrossStats run_impl(LinearWriter w, std::span<T> y, Body&& body,
                         const SimpleDoacrossOptions& opts) {
    if (static_cast<index_t>(ynew_.size()) < w.n) {
      ynew_.resize(static_cast<std::size_t>(w.n));
    }
    T* yp = y.data();
    T* ynp = ynew_.data();
    // No inspector phase — that is the point of this variant.
    return doacross_rows(
        *pool_, w.n, false, ready_, opts,
        [&](index_t i, TallyWait<Ready>& wait) noexcept {
          LinearIteration<T, TallyWait<Ready>, StaticC> it(i, w, wait, yp, ynp);
          body(it);
          ynp[i] = it.lhs();
        },
        [&](index_t i) noexcept { yp[w(i)] = ynp[i]; });
  }

  rt::ThreadPool* pool_;
  Ready ready_;  // iteration-indexed
  std::vector<T, rt::CacheAlignedAllocator<T>> ynew_;
};

}  // namespace pdx::core
