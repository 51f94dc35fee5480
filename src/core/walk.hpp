// walk.hpp — the two walks and the two waits every executor runs on.
//
// The paper's preprocessed doacross is one executor: ready flags plus an
// order, running any loop body. These are its pieces, written once and
// shared by the paper engines (simple_doacross, LinearDoacross,
// BlockedDoacross, the unplanned sparse trisolves) and the production
// plans' core::DagPlan:
//
//   flag_walk    positions claimed under an rt::Schedule, each mapped to
//                its row (an order, source order, or reverse), the body
//                run, then the row's flag published (paper Fig. 2 S3)
//   level_walk   each level of a Reordering split static-block across the
//                region, one barrier after each level and no flags
//   NoWait       the wait of walks whose dependences are already final
//   TallyWait    the unguarded flag wait (paper Fig. 2 S1) with its
//                episode/round tally
//
// The walks are always inlined into their callers (DagPlan's noinline
// walk_* members among them). level_walk's body inlines into its loop;
// flag_walk's position lambda is called from rt::schedule_run's three
// loops (one per schedule kind), so GCC keeps that lambda — the row body
// inlined in it — out of line: one call per position.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/doconsider.hpp"
#include "runtime/barrier.hpp"
#include "runtime/schedule.hpp"
#include "runtime/types.hpp"

namespace pdx::core {

/// The wait the level and serial walks pass: every dependence is final.
struct NoWait {
  static constexpr bool kWaits = false;
  void operator()(index_t) const noexcept {}
};

/// The paper engines' flag wait: block until `dep` is DONE, and count the
/// waits that actually spun (DoacrossStats::wait_episodes/wait_rounds).
template <class Ready>
struct TallyWait {
  static constexpr bool kWaits = true;
  const Ready* ready;
  std::uint64_t episodes = 0;
  std::uint64_t rounds = 0;

  void operator()(index_t dep) noexcept {
    const std::uint64_t r = ready->wait_done(dep);
    if (r != 0) {
      ++episodes;
      rounds += r;
    }
  }
};

/// Flag walk over n positions: the positions `s` assigns to thread `tid`
/// run `body(pos, row)` — row = order[pos], else pos, else n-1-pos when
/// `reverse` — and then `ready.mark_done(row)`, which release-publishes
/// everything the body stored. `cursor` is the dynamic schedule's claim
/// counter, rewound to 0 before the region.
template <class Ready, class Body>
[[gnu::always_inline]] inline void flag_walk(
    const rt::Schedule& s, index_t n, unsigned tid, unsigned nthreads,
    std::atomic<index_t>* cursor, const index_t* order, bool reverse,
    Ready& ready, Body&& body) {
  rt::schedule_run(s, n, tid, nthreads, cursor, [&](index_t pos) {
    const index_t row = order ? order[pos] : reverse ? n - 1 - pos : pos;
    body(pos, row);
    ready.mark_done(row);
  });
}

/// Level walk: each level's positions of `r` split static-block across the
/// region, `body(pos, end)` for each of this thread's positions (`end`
/// closes its consecutive run), then one barrier — every producer of level
/// l finishes before level l+1 opens.
template <class Body>
[[gnu::always_inline]] inline void level_walk(const Reordering& r,
                                              unsigned tid, unsigned nthreads,
                                              rt::Barrier& barrier,
                                              Body&& body) {
  for (index_t lvl = 0; lvl < r.num_levels(); ++lvl) {
    const index_t lo = r.level_ptr[static_cast<std::size_t>(lvl)];
    const index_t hi = r.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const rt::IterRange part = rt::static_block_range(hi - lo, tid, nthreads);
    const index_t end = lo + part.end;
    for (index_t pos = lo + part.begin; pos < end; ++pos) body(pos, end);
    barrier.arrive_and_wait();
  }
}

}  // namespace pdx::core
