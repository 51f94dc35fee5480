// iteration.hpp — per-iteration dependence-resolving accessor.
//
// An `Iteration` is what a preprocessed-doacross loop body receives instead
// of raw array indexing. It implements the transformed reference semantics
// of paper Fig. 5:
//
//     check = iter(offset) - i
//     check <  0 : true dependence  -> wait ready(offset); use ynew(offset)
//     check == 0 : same iteration   -> use the partial left-hand side
//     check >  0 : antidependence or never written -> use y(offset)
//
// and the transformed write semantics: the left-hand side accumulates in
// `lhs()` (initialized from the old value, Fig. 5 statement S2) and is
// committed to ynew + ready by the executor after the body returns.
//
// `Wait` is the executor's flag wait (core::TallyWait, core/walk.hpp),
// which blocks on ready(offset) and tallies the wait.
#pragma once

#include "core/iter_table.hpp"
#include "runtime/types.hpp"

namespace pdx::core {

template <class T, class Wait>
class Iteration {
 public:
  Iteration(index_t i, index_t lhs_off, const index_t* iter, Wait& wait,
            const T* yold, const T* ynew) noexcept
      : i_(i),
        lhs_off_(lhs_off),
        acc_(yold[lhs_off]),
        iter_(iter),
        wait_(&wait),
        yold_(yold),
        ynew_(ynew) {}

  Iteration(const Iteration&) = delete;
  Iteration& operator=(const Iteration&) = delete;

  /// Source-order iteration number `i`.
  index_t index() const noexcept { return i_; }

  /// Offset this iteration writes — the paper's a(i).
  index_t lhs_index() const noexcept { return lhs_off_; }

  /// The left-hand-side accumulator ynew(a(i)); starts at y(a(i)).
  T& lhs() noexcept { return acc_; }
  const T& lhs() const noexcept { return acc_; }

  /// Dependence-resolved read of y(offset) per the three-way check above.
  T read(index_t offset) noexcept {
    const index_t w = iter_[offset];  // writer iteration, or kNeverWritten
    if (w == i_) {
      return acc_;  // check == 0: intra-iteration reference
    }
    if (w < i_) {
      // check < 0: true dependence — busy-wait for the producer.
      (*wait_)(offset);
      return ynew_[offset];
    }
    // check > 0: antidependence (a later iteration writes it) or the
    // offset is never written — either way the old value is correct.
    return yold_[offset];
  }

  /// Peek the resolved value *source* without waiting; for diagnostics.
  /// Returns -1 for a true dependence, 0 intra-iteration, +1 old value.
  int classify(index_t offset) const noexcept {
    const index_t w = iter_[offset];
    if (w == i_) return 0;
    return w < i_ ? -1 : +1;
  }

 private:
  const index_t i_;
  const index_t lhs_off_;
  T acc_;
  const index_t* iter_;
  Wait* wait_;
  const T* yold_;
  const T* ynew_;
};

}  // namespace pdx::core
