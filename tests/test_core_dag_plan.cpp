// Tests for the executor core (core::DagPlan) run directly on a
// non-sparse row body: a per-row accumulation over a dependence DAG —
// a chain, and the true-dependence graph of a random irregular loop.
// Every walk (flags, levels, serial) at every width must reproduce the
// sequential loop bitwise; parallel runs cost one pool dispatch and
// serial runs none; a kAuto race spends exactly 3 x calibration_epochs
// runs, compares them per column, and a tuning-cache hit spends none; an
// injected fault poisons. The race template all three plan races run on
// (core::Race) is tested on its own: budgets, argmin, tie-break, the
// disarmed and adopted states, and the one lock-in signal.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/advisor.hpp"
#include "core/dag_plan.hpp"
#include "core/doconsider.hpp"
#include "core/race.hpp"
#include "gen/random_loop.hpp"
#include "gen/rng.hpp"
#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"

namespace core = pdx::core;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(4);
  return p;
}

/// A DAG with per-edge coefficients and per-row seeds: row i's value is
/// seed[i] + sum over its dependences j (stored order) of coef * v[j].
struct Loop {
  core::DepGraph g;
  std::vector<double> seed;
  std::vector<double> coef;  // parallel to g.adj
};

Loop with_values(core::DepGraph g, std::uint64_t s) {
  gen::SplitMix64 rng(s);
  Loop l{std::move(g), {}, {}};
  const index_t n = l.g.iterations();
  l.seed.resize(static_cast<std::size_t>(n));
  l.coef.resize(l.g.adj.size());
  for (index_t i = 0; i < n; ++i) {
    l.seed[static_cast<std::size_t>(i)] = rng.next_double(-1.0, 1.0);
    const index_t b = l.g.ptr[static_cast<std::size_t>(i)];
    const index_t e = l.g.ptr[static_cast<std::size_t>(i) + 1];
    // Damped so values stay bounded whatever the in-degree.
    const double scale = 0.5 / static_cast<double>(std::max<index_t>(1, e - b));
    for (index_t k = b; k < e; ++k) {
      l.coef[static_cast<std::size_t>(k)] = scale * rng.next_double(-1.0, 1.0);
    }
  }
  return l;
}

Loop chain(index_t n) {
  core::DepGraph g;
  g.ptr.push_back(0);
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) g.adj.push_back(i - 1);
    g.ptr.push_back(static_cast<index_t>(g.adj.size()));
  }
  return with_values(std::move(g), 7);
}

Loop random_dag(std::uint64_t s) {
  const gen::RandomLoopParams p{.n = 600, .value_space = 900, .min_reads = 0,
                                .max_reads = 4, .dep_bias = 0.7};
  return with_values(gen::random_loop_deps(gen::make_random_loop(p, s)), s);
}

/// The row body both the reference loop and every walk run.
template <class Wait>
void compute_row(const Loop& l, std::vector<double>& v, index_t i,
                 Wait& wait) {
  double acc = l.seed[static_cast<std::size_t>(i)];
  for (index_t k = l.g.ptr[static_cast<std::size_t>(i)];
       k < l.g.ptr[static_cast<std::size_t>(i) + 1]; ++k) {
    const index_t j = l.g.adj[static_cast<std::size_t>(k)];
    wait(j);
    acc += l.coef[static_cast<std::size_t>(k)] * v[static_cast<std::size_t>(j)];
  }
  v[static_cast<std::size_t>(i)] = acc;
}

std::vector<double> sequential(const Loop& l) {
  std::vector<double> v(static_cast<std::size_t>(l.g.iterations()));
  core::NoWait nw;
  for (index_t i = 0; i < l.g.iterations(); ++i) compute_row(l, v, i, nw);
  return v;
}

core::TrisolveStructure measure(const Loop& l, const core::Reordering& r) {
  core::TrisolveStructure s;
  s.n = l.g.iterations();
  s.nnz = s.n + l.g.edges();
  s.levels = r.num_levels();
  for (index_t lvl = 0; lvl < r.num_levels(); ++lvl) {
    s.max_level_size = std::max(s.max_level_size, r.level_size(lvl));
  }
  for (index_t i = 0; i < s.n; ++i) {
    for (index_t j : l.g.deps_of(i)) s.max_distance = std::max(s.max_distance, i - j);
  }
  s.avg_level_width = s.levels > 0 ? static_cast<double>(s.n) / s.levels : 0.0;
  s.nnz_per_row = s.n > 0 ? static_cast<double>(s.nnz) / s.n : 0.0;
  return s;
}

/// A minimal plan over the core: one DAG, one region bound once, a
/// row-addressed body.
class LoopPlan {
 public:
  LoopPlan(const Loop& l, core::DagPlanConfig cfg)
      : loop_(&l),
        core_(pool(), l.g.iterations(), 1, cfg, tel_),
        v_(static_cast<std::size_t>(l.g.iterations())) {
    core::Dag& d = core_.dag(0);
    if (cfg.strategy == core::ExecStrategy::kAuto) {
      d.order = std::make_unique<core::Reordering>(core::doconsider_order(l.g));
      const core::TrisolveStructure s = measure(l, *d.order);
      core_.decide(s, core::advise_schedule(s, core_.nthreads()));
    }
    if (core_.needs_order() && !d.order) {
      d.order = std::make_unique<core::Reordering>(core::doconsider_order(l.g));
    }
    region_ = core_.contained([this](unsigned tid, unsigned nth) {
      core_.walk_rows(core_.dag(0), tid, nth, [this](index_t i, auto& wait) {
        compute_row(*loop_, v_, i, wait);
      });
    });
  }

  const std::vector<double>& run() {
    std::fill(v_.begin(), v_.end(), 0.0);
    core_.reset(core_.dag(0));
    const core::DoacrossStats st = core_.dispatch(region_);
    core_.end_epoch(st.execute_seconds, /*order=*/false);
    return v_;
  }

  core::DagPlan& core() { return core_; }
  const core::ExecTelemetry& telemetry() const { return tel_; }

 private:
  const Loop* loop_;
  core::ExecTelemetry tel_;
  core::DagPlan core_;
  std::vector<double> v_;
  rt::ThreadPool::RegionFn region_;
};

core::DagPlanConfig pinned(core::ExecStrategy s, unsigned nth) {
  core::DagPlanConfig c;
  c.nthreads = nth;
  c.strategy = s;
  c.name = "LoopPlan";
  return c;
}

void expect_bitwise(const std::vector<double>& ref,
                    const std::vector<double>& v, const char* what) {
  ASSERT_EQ(ref.size(), v.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], v[i]) << what << " row " << i;
  }
}

constexpr core::ExecStrategy kStrategies[] = {core::ExecStrategy::kSerial,
                                              core::ExecStrategy::kDoacross,
                                              core::ExecStrategy::kLevelBarrier};

}  // namespace

TEST(DagPlan, EveryWalkBitwiseWithinDispatchBudget) {
  const Loop loops[] = {chain(300), random_dag(11), random_dag(12)};
  for (const Loop& l : loops) {
    const std::vector<double> ref = sequential(l);
    for (core::ExecStrategy s : kStrategies) {
      for (unsigned nth : {1u, 2u, 4u}) {
        LoopPlan plan(l, pinned(s, nth));
        ASSERT_EQ(plan.core().strategy(), s);
        for (int rep = 0; rep < 3; ++rep) {  // epochs reset in O(1)
          const rt::DispatchProbe probe(pool());
          const std::vector<double>& v = plan.run();
          EXPECT_EQ(probe.delta(), s == core::ExecStrategy::kSerial ? 0u : 1u)
              << core::to_string(s) << " nth=" << nth;
          expect_bitwise(ref, v, core::to_string(s));
        }
      }
    }
  }
}

TEST(DagPlan, RaceSpendsThreeBudgetsThenCacheHitSpendsNone) {
  core::tuning_cache().clear();
  const Loop l = random_dag(21);
  const std::vector<double> ref = sequential(l);
  core::DagPlanConfig cfg = pinned(core::ExecStrategy::kAuto, 2);
  cfg.calibration_epochs = 3;
  LoopPlan plan(l, cfg);
  ASSERT_TRUE(plan.core().calibrating());
  int epochs = 0;
  while (plan.core().calibrating()) {
    ASSERT_LT(epochs, 64);
    expect_bitwise(ref, plan.run(), "exploration run");
    ++epochs;
  }
  EXPECT_EQ(epochs, 3 * cfg.calibration_epochs);
  const core::ExecTelemetry& t = plan.telemetry();
  EXPECT_EQ(t.race.exploration_epochs, 3 * cfg.calibration_epochs);
  EXPECT_TRUE(t.race.calibrated);
  ASSERT_EQ(t.race.timings.size(), 3u);
  for (const core::RaceTiming<core::ExecStrategy>& timing : t.race.timings) {
    EXPECT_EQ(timing.epochs, cfg.calibration_epochs);
  }
  // The winner drops the order it does not walk.
  EXPECT_EQ(plan.core().dag(0).order != nullptr, plan.core().needs_order());
  expect_bitwise(ref, plan.run(), "locked-in run");
  EXPECT_EQ(core::tuning_cache().stats().stores, 1u);

  LoopPlan second(l, cfg);
  EXPECT_FALSE(second.core().calibrating());
  EXPECT_TRUE(second.telemetry().race.cache_hit);
  EXPECT_EQ(second.core().strategy(), plan.core().strategy());
  expect_bitwise(ref, second.run(), "cache-hit run");
  EXPECT_EQ(second.telemetry().race.exploration_epochs, 0);
  core::tuning_cache().clear();
}

TEST(DagPlan, RaceComparesTimesPerColumn) {
  // A batched run of 8 columns in 8 us costs 1 us per column; single
  // runs of 2 us and 3 us cost more per column although their raw times
  // are lower. The race must pick the batched candidate, whatever width
  // it happened to be timed at.
  const Loop l = random_dag(41);
  core::DagPlanConfig cfg = pinned(core::ExecStrategy::kAuto, 2);
  cfg.calibration_epochs = 2;
  cfg.use_tuning_cache = false;
  LoopPlan plan(l, cfg);
  ASSERT_TRUE(plan.core().calibrating());
  const core::ExecTelemetry& t = plan.telemetry();
  ASSERT_EQ(t.race.timings.size(), 3u);
  const core::ExecStrategy first = t.race.timings[0].choice;
  const double seconds[3] = {8e-6, 2e-6, 3e-6};
  const index_t columns[3] = {8, 1, 1};
  bool locked = false;
  for (int c = 0; c < 3; ++c) {
    for (int e = 0; e < cfg.calibration_epochs; ++e) {
      ASSERT_FALSE(locked);
      locked = plan.core().end_epoch(seconds[c], /*order=*/false,
                                     columns[c]);
    }
  }
  EXPECT_TRUE(locked);
  EXPECT_EQ(t.race.exploration_epochs, 3 * cfg.calibration_epochs);
  EXPECT_DOUBLE_EQ(t.race.timings[0].best_us, 1.0);
  EXPECT_DOUBLE_EQ(t.race.timings[1].best_us, 2.0);
  EXPECT_DOUBLE_EQ(t.race.timings[2].best_us, 3.0);
  EXPECT_EQ(plan.core().strategy(), first);
  expect_bitwise(sequential(l), plan.run(), "locked-in run");
}

TEST(DagPlan, FlagWalkScheduleIsFixedAtConstruction) {
  // A pinned doacross plan claims dynamic chunks of the default size, an
  // Auto plan dynamic single iterations — before, during and after its
  // race — and every flag walk runs the doconsider order.
  core::tuning_cache().clear();
  const Loop l = random_dag(51);
  const std::vector<double> ref = sequential(l);

  LoopPlan pinned_plan(l, pinned(core::ExecStrategy::kDoacross, 2));
  EXPECT_EQ(pinned_plan.core().schedule().kind, rt::SchedKind::Dynamic);
  EXPECT_EQ(pinned_plan.core().schedule().chunk, 0);
  EXPECT_TRUE(pinned_plan.core().needs_order());
  ASSERT_NE(pinned_plan.core().dag(0).order, nullptr);
  expect_bitwise(ref, pinned_plan.run(), "pinned doacross");

  core::DagPlanConfig cfg = pinned(core::ExecStrategy::kAuto, 2);
  cfg.use_tuning_cache = false;
  LoopPlan racing(l, cfg);
  ASSERT_TRUE(racing.core().calibrating());
  for (int run = 0; racing.core().calibrating(); ++run) {
    ASSERT_LT(run, 64);
    EXPECT_EQ(racing.core().schedule().kind, rt::SchedKind::Dynamic);
    EXPECT_EQ(racing.core().schedule().chunk, 1);
    EXPECT_TRUE(racing.core().needs_order());
    expect_bitwise(ref, racing.run(), "raced run");
  }
  EXPECT_EQ(racing.core().schedule().chunk, 1);
  EXPECT_EQ(racing.core().needs_order(),
            racing.core().strategy() != core::ExecStrategy::kSerial);

  cfg.calibration_epochs = 0;  // the heuristic pick, no race
  LoopPlan heuristic(l, cfg);
  EXPECT_EQ(heuristic.core().schedule().kind, rt::SchedKind::Dynamic);
  EXPECT_EQ(heuristic.core().schedule().chunk, 1);
  expect_bitwise(ref, heuristic.run(), "heuristic pick");
}

TEST(DagPlan, InjectedFaultPoisons) {
  const Loop l = random_dag(31);
  const std::vector<double> ref = sequential(l);
  for (core::ExecStrategy s : kStrategies) {
    LoopPlan plan(l, pinned(s, 4));
    rt::FaultInjector inj;
    plan.core().set_fault_injector(&inj);
    expect_bitwise(ref, plan.run(), "before the fault");
    inj.arm_throw(rt::FaultInjector::kAnyTid, l.g.iterations() / 2);
    EXPECT_THROW(plan.run(), rt::InjectedFault) << core::to_string(s);
    EXPECT_EQ(inj.faults_fired(), 1);
    EXPECT_TRUE(plan.core().poisoned());
    EXPECT_THROW(plan.run(), rt::PlanPoisonedError) << core::to_string(s);
  }
}

// --- the race template -------------------------------------------------

namespace {

/// Feed `race` one epoch per entry of `us`, in order; returns how many
/// feeds reported lock-in.
int feed(core::Race<int>& race, const std::vector<double>& us) {
  int locks = 0;
  for (const double u : us) locks += race.note_epoch(u) ? 1 : 0;
  return locks;
}

}  // namespace

TEST(Race, TwoCandidatesSpendTheirBudgetAndTheArgminWins) {
  core::Race<int> race({7, 9});
  race.arm(3);
  ASSERT_TRUE(race.active());
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(race.candidate(), 7);
    EXPECT_FALSE(race.note_epoch(5.0 - e));  // best-of: 3.0
  }
  EXPECT_EQ(race.candidate(), 9);
  EXPECT_EQ(feed(race, {4.0, 2.5}), 0);
  EXPECT_TRUE(race.note_epoch(6.0));
  EXPECT_FALSE(race.active());
  EXPECT_EQ(race.winner(), 9);
  EXPECT_EQ(race.candidate(), 9);
  EXPECT_EQ(race.winner_index(), 1u);
  const core::RaceState<int>& st = race.state();
  EXPECT_TRUE(st.calibrated);
  EXPECT_FALSE(st.cache_hit);
  EXPECT_EQ(st.exploration_epochs, 6);
  ASSERT_EQ(st.timings.size(), 2u);
  EXPECT_EQ(st.timings[0].choice, 7);
  EXPECT_EQ(st.timings[1].choice, 9);
  for (const core::RaceTiming<int>& t : st.timings) EXPECT_EQ(t.epochs, 3);
  EXPECT_EQ(st.timings[0].best_us, 3.0);
  EXPECT_EQ(st.timings[1].best_us, 2.5);
}

TEST(Race, ThreeCandidatesExploreInOrderAndTheArgminWins) {
  core::Race<int> race({2, 0, 1});
  race.arm(2);
  std::vector<int> explored;
  const std::vector<double> us = {4.0, 3.0, 1.5, 9.0, 2.0, 1.6};
  int locks = 0;
  for (const double u : us) {
    explored.push_back(race.candidate());
    locks += race.note_epoch(u) ? 1 : 0;
  }
  EXPECT_EQ(explored, (std::vector<int>{2, 2, 0, 0, 1, 1}));
  EXPECT_EQ(locks, 1);
  EXPECT_EQ(race.winner(), 0);
  EXPECT_EQ(race.winner_index(), 1u);
  const core::RaceState<int>& st = race.state();
  EXPECT_EQ(st.exploration_epochs, 6);
  ASSERT_EQ(st.timings.size(), 3u);
  for (const core::RaceTiming<int>& t : st.timings) EXPECT_EQ(t.epochs, 2);
  EXPECT_EQ(st.timings[0].best_us, 3.0);
  EXPECT_EQ(st.timings[1].best_us, 1.5);
  EXPECT_EQ(st.timings[2].best_us, 1.6);
}

TEST(Race, AnExactTieKeepsTheFirstCandidate) {
  core::Race<int> two({4, 5});
  two.arm(1);
  EXPECT_EQ(feed(two, {2.0, 2.0}), 1);
  EXPECT_EQ(two.winner(), 4);
  EXPECT_EQ(two.winner_index(), 0u);

  // A tie between later candidates keeps the earlier of them.
  core::Race<int> three({4, 5, 6});
  three.arm(1);
  EXPECT_EQ(feed(three, {3.0, 2.0, 2.0}), 1);
  EXPECT_EQ(three.winner(), 5);
  EXPECT_EQ(three.winner_index(), 1u);
}

TEST(Race, NonPositiveBudgetLeavesTheRaceDisarmed) {
  for (const int budget : {0, -1}) {
    core::Race<int> race({3, 1, 2});
    race.arm(budget);
    EXPECT_FALSE(race.active()) << budget;
    EXPECT_EQ(race.candidate(), 3) << budget;  // the fallback
    EXPECT_EQ(race.winner(), 3) << budget;
    EXPECT_FALSE(race.note_epoch(1.0)) << budget;
    EXPECT_FALSE(race.state().calibrated) << budget;
    EXPECT_EQ(race.state().exploration_epochs, 0) << budget;
    EXPECT_TRUE(race.state().timings.empty()) << budget;
  }
}

TEST(Race, AdoptRecordsACacheHitWithoutTimings) {
  core::Race<int> race({3, 1, 2});
  race.adopt(2);
  EXPECT_FALSE(race.active());
  EXPECT_EQ(race.candidate(), 2);
  EXPECT_EQ(race.winner(), 2);
  EXPECT_TRUE(race.state().calibrated);
  EXPECT_TRUE(race.state().cache_hit);
  EXPECT_EQ(race.state().exploration_epochs, 0);
  EXPECT_TRUE(race.state().timings.empty());
  EXPECT_FALSE(race.note_epoch(1.0));
}

TEST(Race, NoteEpochReportsLockInExactlyOnce) {
  core::Race<int> race({1, 2, 3});
  race.arm(2);
  // Six epochs lock in; every later feed is ignored.
  EXPECT_EQ(feed(race, {5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.1, 0.1, 0.1}), 1);
  EXPECT_EQ(race.winner(), 3);
  EXPECT_EQ(race.state().exploration_epochs, 6);
  EXPECT_EQ(race.state().timings[2].best_us, 0.5);
}
