// dag_plan.hpp — the one executor core of the persistent plans.
//
// The paper's preprocessed doacross is ONE executor — ready flags plus an
// inspector-built order — that runs any loop body. DagPlan is that
// executor for the production plans: it owns *how rows are scheduled and
// waited on*, and the plans (sparse::TrisolvePlan, sparse::FactorPlan)
// supply only *what a row computes*. The split mirrors OpenMP's
// `ordered depend(sink/source)` doacross, where the schedule is a
// construct and the loop body is separate.
//
// A DagPlan owns, for one plan:
//
//   the walks          flags + rt::schedule_run (kDoacross), level slices
//                      + barrier (kLevelBarrier), the inline walk on the
//                      calling thread (kSerial) in source order or, for
//                      single-RHS bodies, the inspector's level order —
//                      each written once, here
//   per-DAG state      an EpochReadyTable, a claim cursor and the optional
//                      doconsider Reordering per dependence DAG (a solve
//                      plan walks two: L and U)
//   containment        barrier, FailureLatch / WaitGuard, poison flag,
//                      per-thread wait stats, the `contained` wrapper and
//                      the one `dispatch` (serial inline, otherwise one
//                      pool region)
//   the races          heuristic opening bid, the {serial, doacross,
//                      level-barrier} calibration race, the TuningCache,
//                      and the {source, wavefront} order race of
//                      single-RHS serial walks (DESIGN.md §13)
//
// A row body is called as `body(pos, wait)` for execution position `pos`.
// It calls `wait(dep)` before reading row `dep`'s result: the flag walk
// passes the guarded flag wait and marks the row done after the body
// returns; the level and serial walks pass NoWait, which inlines away.
// A body may also define the lookahead hook `look(pos, end)`: the level
// walk calls it before `body(pos)` with the end of the thread's
// consecutive run — where a body may parse and prefetch the next record.
//
// Lifetime and threading follow the plans: the pool must outlive the
// core, one caller at a time, and the strategy only changes on the
// calling thread between dispatches — so a region bound once at
// construction reads the current strategy whenever it runs. The one
// exception is run_inline on a settled() plan: it writes nothing shared
// but the poison flag, so concurrent callers may each run one. (An order
// race still exploring on a settled plan changes the walk order only in
// end_epoch, on the calling thread, never while run_inline callers run.)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "core/doacross_stats.hpp"
#include "core/doconsider.hpp"
#include "core/race.hpp"
#include "core/ready_table.hpp"
#include "runtime/aligned.hpp"
#include "runtime/barrier.hpp"
#include "runtime/failure.hpp"
#include "runtime/schedule.hpp"
#include "runtime/thread_pool.hpp"

namespace pdx::core {

/// Record of the {source, wavefront} race of a serial plan's single-RHS
/// walks (DESIGN.md §13): source explores first and keeps a tie.
using OrderRaceState = RaceState<WalkOrder>;

/// The decision and race record every plan reports; DagPlan writes it
/// (PlanTelemetry and FactorTelemetry extend it).
struct ExecTelemetry {
  ExecStrategy requested = ExecStrategy::kAuto;
  /// The resolved strategy (never kAuto). Under a calibration race this
  /// is the strategy the NEXT run uses — the current candidate while
  /// exploring, the measured winner once locked in.
  ExecStrategy strategy = ExecStrategy::kSerial;
  /// The advisor's reason under kAuto; "strategy fixed by caller"
  /// otherwise. Never empty after construction. Rewritten when a
  /// calibration race locks in its measured winner.
  std::string rationale;
  /// The empirical calibration record (DESIGN.md §13): whether a measured
  /// winner is locked in, whether it came from the TuningCache, and the
  /// per-strategy race timings (the opening bid explores first and keeps
  /// a tie).
  RaceState<ExecStrategy> race;
  /// Inspector-measured structure of the lower pattern (kAuto only).
  TrisolveStructure structure;
  /// Processor count the decision assumed (the plan's region width).
  unsigned procs = 0;
  /// The order serial single-RHS walks follow: the current candidate
  /// while the order race explores, the measured winner once locked in.
  WalkOrder order = WalkOrder::kSource;
  /// The order race record (armed only on serial plans whose config
  /// allows it — DagPlanConfig::order_race).
  OrderRaceState order_race;
};

/// What a plan's options fix for the core at build time.
struct DagPlanConfig {
  /// Region width; 0 → the pool's full width.
  unsigned nthreads = 0;
  ExecStrategy strategy = ExecStrategy::kAuto;
  /// Flag-walk schedule and doconsider use (kDoacross; the advisor owns
  /// both under kAuto).
  rt::Schedule schedule = rt::Schedule::dynamic();
  bool reorder = true;
  int calibration_epochs = 2;
  bool use_tuning_cache = true;
  std::uint64_t stall_budget = 0;
  /// Factorization races key the TuningCache apart from solve races.
  bool factor = false;
  /// Serial single-RHS bodies may walk the doconsider order: once the
  /// strategy is serial, race it against source order (TrisolvePlan over
  /// CSR views; packed slabs are laid out in source order).
  bool order_race = false;
  /// Plan name for error messages and the noun one epoch is ("solve",
  /// "factorization") for the race rationale.
  const char* name = "plan";
  const char* epoch = "run";
};

/// One dependence DAG a plan walks: ready flags, the dynamic-claim
/// cursor, and the optional doconsider order. Without an order the flag
/// walk visits rows in natural order — rows 0..n-1, or n-1..0 for a
/// `reverse` DAG (a backward solve); the serial walk always does.
struct Dag {
  EpochReadyTable ready;
  std::unique_ptr<Reordering> order;
  bool reverse = false;
  /// Every flag-walk thread claims positions here, so the cursor gets a
  /// cache line of its own: sharing one with the table fields every flag
  /// check reads would invalidate them on each claim.
  alignas(kCacheLineBytes) std::atomic<index_t> cursor{0};

  const index_t* order_data() const noexcept {
    return order ? order->order.data() : nullptr;
  }
};

/// The wait the level and serial walks pass: every dependence is final.
struct NoWait {
  static constexpr bool kWaits = false;
  void operator()(index_t) const noexcept {}
};

/// The flag walk's wait: the latch-aware busy wait on a producer's flag,
/// with the consumer row for stall diagnostics and the episode tallies.
struct FlagWait {
  static constexpr bool kWaits = true;
  const EpochReadyTable* ready;
  const rt::WaitGuard* guard;
  index_t row = -1;
  std::uint64_t episodes = 0;
  std::uint64_t rounds = 0;

  void operator()(index_t dep) {
    // The already-done check inlines into the row loop; only a real wait
    // pays the call into the spin loop.
    if (ready->is_done(dep)) return;
    const std::uint64_t w = wait_done_guarded(*ready, dep, row, *guard);
    if (w != 0) {
      ++episodes;
      rounds += w;
    }
  }
};

class DagPlan {
 public:
  /// A core over `n` rows and `dags` dependence DAGs (each sized n),
  /// writing its decisions into `tel`. A pinned strategy is resolved
  /// here; kAuto waits for decide().
  DagPlan(rt::ThreadPool& pool, index_t n, unsigned dags,
          const DagPlanConfig& cfg, ExecTelemetry& tel);

  DagPlan(const DagPlan&) = delete;
  DagPlan& operator=(const DagPlan&) = delete;

  /// kAuto: take the advisor's heuristic pick over the measured structure
  /// as the opening bid, then — when a race is viable (parallel width,
  /// calibration_epochs > 0, non-empty) — consult the TuningCache or arm
  /// the race over {serial, doacross, level-barrier}. A serial pick that
  /// no strategy race follows arms the order race.
  void decide(const TrisolveStructure& s, const ScheduleAdvice& advice);

  /// Whether a serial plan's order race can arm: the config allows it,
  /// calibration_epochs > 0, non-empty, and the strategy is serial.
  bool can_race_order() const noexcept;
  /// Arm the {source, wavefront} order race (DESIGN.md §13) over the
  /// measured lower structure `s` — or replay its verdict from the
  /// TuningCache. No-op unless can_race_order(). A pinned serial plan
  /// calls it after building; decide() and the strategy race's lock-in
  /// call it for a serial pick.
  void arm_order_race(const TrisolveStructure& s);

  /// Whether the current strategy (or a running race) executes through
  /// the DAGs' doconsider orders.
  bool needs_order() const noexcept;

  // --- the walks (called inside a region on every participating thread)
  //
  // Each walk instantiation is its own function, and takes its body by
  // value, so the row body, its source and any lookahead state inline
  // into the loop and live in registers. A plan instantiates a dozen
  // walks from one call site; inlined there they exhaust the inliner's
  // budget and leave per-row calls behind.

  /// Flag walk: positions claimed by the schedule, each row waiting on
  /// its producers' flags and marked done after its body.
  template <class Body>
  [[gnu::noinline]] void walk_flags(Dag& d, unsigned tid, unsigned nthreads,
                                    Body body);
  /// Level walk: each level's positions split static-block across the
  /// region, one barrier after each level and no flags.
  template <class Body>
  [[gnu::noinline]] void walk_levels(Dag& d, unsigned tid, unsigned nthreads,
                                     Body body);
  /// Serial walk: every position in turn on the calling thread; `tid`
  /// names it to the fault injector. `ord` is the order the body's row
  /// source follows — the DAG's doconsider order for the wavefront walk,
  /// nullptr for source order — so the injector names the row that runs.
  template <class Body>
  [[gnu::noinline]] void walk_serial(Dag& d, unsigned tid, Body body,
                                     const index_t* ord = nullptr);
  /// Run `d` under the current strategy with a body addressed by ROW —
  /// `body(row, wait)` — for bodies that need no per-walk row source
  /// (FactorPlan's elimination row): each walk maps its positions to rows
  /// (flag and level walks through the order when present, the serial
  /// walk in source order — the order race is a single-RHS solve's).
  template <class RowBody>
  void walk_rows(Dag& d, unsigned tid, unsigned nthreads, RowBody body);
  /// Between two DAG walks of one region: the flag walk ends without a
  /// barrier, so the second DAG's readers need one; a level walk's
  /// trailing barrier and the single-threaded serial walk already order
  /// the two.
  void handoff() {
    if (tel_->strategy == ExecStrategy::kDoacross) barrier_.arrive_and_wait();
  }

  // --- dispatch

  /// Wrap a region in the abort protocol: a fault records its exception
  /// in the latch; WorkerAbort — a peer draining after observing the
  /// latch — is discarded. Bind once per region: the wrapper is the only
  /// std::function a run touches, so runs never allocate.
  rt::ThreadPool::RegionFn contained(rt::ThreadPool::RegionFn raw);
  /// O(1) per-run reset of one DAG: epoch bump and cursor rewind.
  void reset(Dag& d) noexcept {
    d.ready.begin_epoch();
    d.cursor.store(0, std::memory_order_relaxed);
  }
  /// Run a contained region: inline on the calling thread for kSerial
  /// (zero pool dispatches), otherwise ONE pool region. Times it, sums
  /// the flag waits, and poisons the plan (rethrowing the fault) when a
  /// worker faulted. Throws rt::PlanPoisonedError on a poisoned plan.
  DoacrossStats dispatch(const rt::ThreadPool::RegionFn& region);
  /// Run `f` — serial walks only — on the calling thread, bypassing the
  /// region machinery: no latch, no wait stats, no reset. Only the
  /// poison flag is written, so on a settled() plan several threads may
  /// call it at once. A fault poisons the plan and propagates to this
  /// caller; a poisoned plan throws rt::PlanPoisonedError up front.
  template <class F>
  DoacrossStats run_inline(F&& f);
  void throw_if_poisoned() const;

  /// After a SUCCESSFUL run (a faulted one threw out of dispatch before
  /// this): feeds the strategy race while it explores, else — when
  /// `order` marks a fused single-RHS run dispatched on the calling
  /// thread — the order race while it explores; each with the time
  /// normalized per `columns`, so runs of different batch widths
  /// compare. Returns true exactly when the strategy race locked in its
  /// winner — the caller then resolves whatever it deferred to lock-in.
  bool end_epoch(double seconds, bool order, index_t columns = 1);

  // --- accessors

  rt::ThreadPool& pool() const noexcept { return *pool_; }
  unsigned nthreads() const noexcept { return nth_; }
  ExecStrategy strategy() const noexcept { return tel_->strategy; }
  bool calibrating() const noexcept { return strategy_race_.active(); }
  /// True while the order race explores. It never holds back settled():
  /// only single-RHS runs on the calling thread feed it, and run_inline
  /// callers walk the current order, which only end_epoch changes.
  bool order_racing() const noexcept { return order_race_.active(); }
  /// Serial single-RHS walks follow the DAGs' doconsider orders.
  bool wavefront() const noexcept {
    return tel_->order == WalkOrder::kWavefront;
  }
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }
  /// Nothing left to decide: no strategy race exploring, not poisoned.
  /// The strategy and layout stay fixed from here on.
  bool settled() const noexcept { return !calibrating() && !poisoned(); }
  Dag& dag(unsigned i) noexcept { return dags_[i]; }
  const Dag& dag(unsigned i) const noexcept { return dags_[i]; }
  rt::FaultInjector* injector() const noexcept { return injector_; }
  void set_fault_injector(rt::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  /// Point the core at strategy `s`: telemetry, the doacross executor
  /// configuration (the advisor's canonical dynamic/1 + doconsider order
  /// under kAuto), and the wait-guard site name.
  void set_strategy_state(ExecStrategy s);
  void set_guard() noexcept;
  /// Lock in the strategy race's winner: rationale, TuningCache, the
  /// order race of a serial winner, and the orders nothing walks any more.
  void finish_calibration();
  /// Copy the order race's record and current order to the telemetry.
  void publish_order();
  /// Walk the order race's winner from here on, drop the orders nothing
  /// walks any more, and append the verdict to the rationale.
  void lock_in_order();
  index_t natural_row(const Dag& d, index_t pos) const noexcept {
    return d.reverse ? n_ - 1 - pos : pos;
  }

  rt::ThreadPool* pool_;
  DagPlanConfig cfg_;
  ExecTelemetry* tel_;
  index_t n_;
  unsigned nth_;
  std::unique_ptr<Dag[]> dags_;
  unsigned dag_count_;

  rt::Barrier barrier_;
  rt::FailureLatch latch_;
  rt::WaitGuard guard_;  // latch + stall budget shared by every flag wait
  std::atomic<bool> poisoned_{false};
  rt::FaultInjector* injector_ = nullptr;
  std::vector<rt::Padded<std::uint64_t>> episodes_, rounds_;

  // kAuto calibration race state (DESIGN.md §13); decide() fills in the
  // candidates, the opening bid first.
  Race<ExecStrategy> strategy_race_{{ExecStrategy::kSerial}};
  TuningKey tuning_key_{};
  bool have_tuning_key_ = false;

  // Order race state (DESIGN.md §13).
  Race<WalkOrder> order_race_{{WalkOrder::kSource, WalkOrder::kWavefront}};
  TuningKey order_key_{};
  bool have_order_key_ = false;
};

/// Level-walk lookahead: the body's optional look(pos, end) hook.
template <class Body>
inline void look_ahead(Body& body, index_t pos, index_t end) {
  if constexpr (requires { body.look(pos, end); }) body.look(pos, end);
}

template <class Body>
void DagPlan::walk_flags(Dag& d, unsigned tid, unsigned nthreads,
                         Body body) {
  // The paper's executor: the ready flags only sequence the reads, so a
  // row's arithmetic is whatever the body does — identical to the
  // sequential loop's. mark_done release-publishes everything the body
  // stored for the row.
  rt::FaultInjector* const inj = injector_;
  const index_t* ord = d.order_data();
  FlagWait wait{&d.ready, &guard_};
  rt::schedule_run(cfg_.schedule, n_, tid, nthreads, &d.cursor,
                   [&](index_t pos) {
                     const index_t row = ord ? ord[pos] : natural_row(d, pos);
                     wait.row = row;
                     if (inj) inj->on_row(tid, row, &latch_);
                     body(pos, wait);
                     d.ready.mark_done(row);
                   });
  episodes_[tid].value += wait.episodes;
  rounds_[tid].value += wait.rounds;
}

template <class Body>
void DagPlan::walk_levels(Dag& d, unsigned tid, unsigned nthreads,
                          Body body) {
  // Bulk-synchronous wavefronts: every producer of level l finished
  // before the barrier that opens level l+1, so no flag is consulted or
  // published.
  rt::FaultInjector* const inj = injector_;
  const Reordering& ord = *d.order;
  NoWait wait;
  for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
    const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
    const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const rt::IterRange r = rt::static_block_range(hi - lo, tid, nthreads);
    const index_t end = lo + r.end;
    for (index_t pos = lo + r.begin; pos < end; ++pos) {
      if (inj) {
        inj->on_row(tid, ord.order[static_cast<std::size_t>(pos)], &latch_);
      }
      look_ahead(body, pos, end);
      body(pos, wait);
    }
    // The trailing episode doubles as the handoff to a second DAG.
    barrier_.arrive_and_wait();
  }
}

template <class Body>
void DagPlan::walk_serial(Dag& d, unsigned tid, Body body,
                          const index_t* ord) {
  // The strategy for chains is to pay NOTHING — no flags, no barrier, no
  // pool wake-up: the sequential loop, in source order or in the level
  // order, where consecutive rows are independent and one core's
  // out-of-order window overlaps them.
  rt::FaultInjector* const inj = injector_;
  NoWait wait;
  for (index_t pos = 0; pos < n_; ++pos) {
    if (inj) inj->on_row(tid, ord ? ord[pos] : natural_row(d, pos), &latch_);
    body(pos, wait);
  }
}

template <class RowBody>
void DagPlan::walk_rows(Dag& d, unsigned tid, unsigned nthreads,
                        RowBody body) {
  const index_t* ord = d.order_data();
  const index_t last = n_ - 1;
  const bool reverse = d.reverse;
  switch (tel_->strategy) {
    case ExecStrategy::kDoacross:
      walk_flags(d, tid, nthreads, [=](index_t pos, FlagWait& wait) mutable {
        body(ord ? ord[pos] : (reverse ? last - pos : pos), wait);
      });
      return;
    case ExecStrategy::kLevelBarrier:
      walk_levels(d, tid, nthreads, [=](index_t pos, NoWait& wait) mutable {
        body(ord[pos], wait);
      });
      return;
    case ExecStrategy::kSerial:
      walk_serial(d, tid, [=](index_t pos, NoWait& wait) mutable {
        body(reverse ? last - pos : pos, wait);
      });
      return;
    case ExecStrategy::kAuto:
      return;  // unreachable: a resolved core never runs kAuto
  }
}

template <class F>
DoacrossStats DagPlan::run_inline(F&& f) {
  throw_if_poisoned();
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  try {
    f();
  } catch (...) {
    // The walk's partial results are garbage, exactly as after a region
    // fault: poison, and let this caller degrade.
    poisoned_.store(true, std::memory_order_release);
    throw;
  }
  DoacrossStats stats;
  stats.execute_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();
  return stats;
}

}  // namespace pdx::core
