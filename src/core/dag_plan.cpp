#include "core/dag_plan.hpp"

#include <chrono>
#include <exception>
#include <string>
#include <utility>
#include <vector>

namespace pdx::core {

DagPlan::DagPlan(rt::ThreadPool& pool, index_t n, unsigned dags,
                 const DagPlanConfig& cfg, ExecTelemetry& tel)
    : pool_(&pool),
      cfg_(cfg),
      tel_(&tel),
      n_(n),
      nth_(pool.clamp_threads(cfg.nthreads)),
      dags_(std::make_unique<Dag[]>(dags)),
      dag_count_(dags),
      barrier_(nth_ == 0 ? 1 : nth_) {
  for (unsigned i = 0; i < dags; ++i) dags_[i].ready.ensure_size(n_);
  episodes_.resize(nth_);
  rounds_.resize(nth_);
  // Fault containment: every flag wait and barrier wait polls the latch
  // (and the optional stall budget); see DESIGN.md §12.
  barrier_.watch(&latch_, cfg_.stall_budget);
  tel_->requested = cfg_.strategy;
  tel_->procs = nth_;
  if (cfg_.strategy != ExecStrategy::kAuto) {
    tel_->strategy = cfg_.strategy;
    tel_->rationale = "strategy fixed by caller";
  }
  set_guard();
}

void DagPlan::decide(const TrisolveStructure& s, const ScheduleAdvice& advice) {
  tel_->structure = s;
  // The heuristic pick is the opening bid; with a viable race below it
  // only decides which strategy explores first.
  tel_->strategy = advice.strategy;
  tel_->rationale = advice.rationale;
  if (advice.strategy == ExecStrategy::kDoacross) {
    cfg_.schedule = advice.schedule;
    cfg_.reorder = advice.use_reordering;
  }
  set_guard();
  // Empirical calibration (DESIGN.md §13). The heuristic ladder sees DAG
  // shape, never synchronization cost on the actual machine, and the
  // strategy baselines prove it can mispick by orders of magnitude. Every
  // walk runs the same row bodies, so every candidate is bitwise
  // identical: the first runs time each candidate invisibly.
  const bool can_calibrate = cfg_.calibration_epochs > 0 && nth_ > 1 && n_ > 0;
  if (!can_calibrate) {
    arm_order_race(s);
    return;
  }
  if (cfg_.use_tuning_cache) {
    tuning_key_ = make_tuning_key(s, nth_, cfg_.factor);
    have_tuning_key_ = true;
    ExecStrategy cached;
    if (tuning_cache().lookup(tuning_key_, cached)) {
      set_strategy_state(cached);
      tel_->rationale = std::string("tuning cache hit: ") +
                        to_string(cached) +
                        " measured fastest earlier for this (pattern, threads)";
      strategy_race_.adopt(cached);
      tel_->race = strategy_race_.state();
      arm_order_race(s);
      return;
    }
  }
  std::vector<ExecStrategy> choices{tel_->strategy};
  for (const ExecStrategy c : {ExecStrategy::kSerial, ExecStrategy::kDoacross,
                               ExecStrategy::kLevelBarrier}) {
    if (c != choices.front()) choices.push_back(c);
  }
  strategy_race_ = Race<ExecStrategy>(std::move(choices));
  strategy_race_.arm(cfg_.calibration_epochs);
  tel_->race = strategy_race_.state();
  set_strategy_state(strategy_race_.candidate());
  tel_->rationale += std::string(" — calibrating: racing every strategy on "
                                 "the first live ") +
                     cfg_.epoch + "s";
}

bool DagPlan::can_race_order() const noexcept {
  return cfg_.order_race && cfg_.calibration_epochs > 0 && n_ > 0 &&
         tel_->strategy == ExecStrategy::kSerial;
}

void DagPlan::arm_order_race(const TrisolveStructure& s) {
  // A serial walk may visit rows in the inspector's level order: every
  // row still runs after its producers, so the bits are the source-order
  // walk's, but neighbouring rows no longer wait on each other's divide.
  // Whether that beats source order depends on the matrix and the core
  // (an RCM ordering already keeps a row's producers close), so it is
  // measured.
  if (!can_race_order() || order_race_.active() ||
      order_race_.state().calibrated) {
    return;
  }
  if (cfg_.use_tuning_cache) {
    // One thread walks either order at any region width, so the verdict
    // is keyed at procs = 1 and shared across widths.
    order_key_ = make_tuning_key(s, 1, cfg_.factor);
    have_order_key_ = true;
    WalkOrder cached;
    if (tuning_cache().lookup(order_key_, cached)) {
      order_race_.adopt(cached);
      lock_in_order();
      return;
    }
  }
  order_race_.arm(cfg_.calibration_epochs);
  publish_order();
}

void DagPlan::publish_order() {
  tel_->order_race = order_race_.state();
  tel_->order = order_race_.candidate();
}

void DagPlan::lock_in_order() {
  publish_order();
  const OrderRaceState& r = tel_->order_race;
  std::string why = "from the tuning cache";
  if (!r.cache_hit) {
    const std::size_t won = order_race_.winner_index();
    why = "measured fastest (" + std::to_string(r.timings[won].best_us) +
          " vs " + std::to_string(r.timings[1 - won].best_us) + " us/" +
          cfg_.epoch + " over " + std::to_string(r.exploration_epochs) +
          " exploration " + cfg_.epoch + "s)";
  }
  tel_->rationale +=
      std::string("; walk order: ") + to_string(tel_->order) + " " + why;
  if (!needs_order()) {
    for (unsigned i = 0; i < dag_count_; ++i) dags_[i].order.reset();
  }
}

bool DagPlan::needs_order() const noexcept {
  // Level-barrier executes the levels themselves; doacross uses the order
  // only when asked to; the wavefront walk is a serial walk over them. A
  // running race keeps the orders alive — the level-barrier and doacross
  // candidates and the wavefront candidate need them; the winner drops
  // what it does not use at lock-in.
  return calibrating() || order_race_.active() ||
         tel_->order == WalkOrder::kWavefront ||
         tel_->strategy == ExecStrategy::kLevelBarrier ||
         (tel_->strategy == ExecStrategy::kDoacross && cfg_.reorder);
}

void DagPlan::set_guard() noexcept {
  guard_ = rt::WaitGuard{&latch_, cfg_.stall_budget, to_string(tel_->strategy)};
}

void DagPlan::set_strategy_state(ExecStrategy s) {
  tel_->strategy = s;
  if (s == ExecStrategy::kDoacross && cfg_.strategy == ExecStrategy::kAuto) {
    // The advisor's canonical flag-based configuration: dynamic
    // single-iteration issue in doconsider order. Fixing it here keeps
    // raced doacross epochs and cache-hit plans configured identically.
    cfg_.schedule = rt::Schedule::dynamic(1);
    cfg_.reorder = true;
  }
  set_guard();
}

void DagPlan::finish_calibration() {
  const ExecStrategy winner = strategy_race_.winner();
  const RaceState<ExecStrategy>& r = tel_->race;
  tel_->rationale = std::string("calibrated: ") + to_string(winner) +
                    " measured fastest (" +
                    std::to_string(
                        r.timings[strategy_race_.winner_index()].best_us) +
                    " us/" + cfg_.epoch + " over " +
                    std::to_string(r.exploration_epochs) + " exploration " +
                    cfg_.epoch + "s)";
  if (have_tuning_key_) tuning_cache().store(tuning_key_, winner);
  arm_order_race(tel_->structure);
  if (!needs_order()) {
    for (unsigned i = 0; i < dag_count_; ++i) dags_[i].order.reset();
  }
}

bool DagPlan::end_epoch(double seconds, bool order, index_t columns) {
  // Normalize per column so epochs of different batch widths compare: a
  // lockstep strip narrows as its systems converge, so candidates raced
  // later would otherwise be timed on fewer columns.
  const double us = seconds * 1e6 / static_cast<double>(columns);
  if (calibrating()) {
    const bool locked = strategy_race_.note_epoch(us);
    tel_->race = strategy_race_.state();
    // The next candidate while exploring, the winner once locked in.
    set_strategy_state(strategy_race_.candidate());
    if (locked) finish_calibration();
    return locked;
  }
  if (order && order_race_.active()) {
    if (!order_race_.note_epoch(us)) {
      publish_order();
    } else {
      if (have_order_key_) {
        tuning_cache().store(order_key_, order_race_.winner());
      }
      lock_in_order();
    }
  }
  return false;
}

rt::ThreadPool::RegionFn DagPlan::contained(rt::ThreadPool::RegionFn raw) {
  return [this, raw = std::move(raw)](unsigned tid, unsigned nthreads) {
    try {
      raw(tid, nthreads);
    } catch (rt::WorkerAbort&) {
      // A peer faulted first; this thread drained its waits and joins.
    } catch (...) {
      latch_.raise(std::current_exception());
    }
  };
}

void DagPlan::throw_if_poisoned() const {
  if (poisoned()) {
    throw rt::PlanPoisonedError(
        std::string(cfg_.name) +
        ": plan poisoned by an earlier in-region fault; rebuild the plan "
        "before running it again");
  }
}

DoacrossStats DagPlan::dispatch(const rt::ThreadPool::RegionFn& region) {
  throw_if_poisoned();
  using clock = std::chrono::steady_clock;
  const bool serial = tel_->strategy == ExecStrategy::kSerial;
  clock::time_point t0;
  if (serial) {
    // The serial strategy's entire value is paying zero parallel
    // overhead: the region runs inline on the calling thread and the
    // pool is never woken.
    t0 = clock::now();
    region(0, 1);
  } else {
    for (unsigned t = 0; t < nth_; ++t) {
      episodes_[t].value = 0;
      rounds_[t].value = 0;
    }
    t0 = clock::now();
    pool_->parallel_region(nth_, region);
  }
  const clock::time_point t1 = clock::now();
  if (latch_.raised()) {
    // A worker faulted inside the region; its peers drained their waits
    // via the latch and joined. Partial results are garbage — poison so
    // every later run fails fast instead of reading them.
    poisoned_.store(true, std::memory_order_release);
    latch_.rethrow_and_reset();
  }
  // Preprocessing was amortized at plan build and there is no
  // postprocessing sweep, so the whole call is executor time (pool
  // wake-up included — the number a repeated caller actually pays).
  DoacrossStats stats;
  stats.execute_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (!serial) {
    for (unsigned t = 0; t < nth_; ++t) {
      stats.wait_episodes += episodes_[t].value;
      stats.wait_rounds += rounds_[t].value;
    }
  }
  return stats;
}

}  // namespace pdx::core
