// Tests for strategy-polymorphic TrisolvePlans (DESIGN.md §9): every
// strategy (doacross, level-barrier, serial, Auto) is
// bitwise identical to the sequential Fig. 7 solves across thread counts
// and batch shapes, parallel strategies keep the one-dispatch-per-solve
// budget (serial costs zero), and Auto's build-time measurement lands on
// the right strategy for generated workloads: level-barrier for
// wide/shallow stencil factors, doacross for scattered long-distance
// dependences, and serial for chain-like matrices (e.g. an RCM-recovered tridiagonal band).
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.hpp"
#include "gen/random_loop.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/levels.hpp"
#include "sparse/permute.hpp"
#include "sparse/rcm.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace core = pdx::core;
namespace rt = pdx::rt;
using pdx::index_t;
using sp::ExecutionStrategy;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

std::vector<double> random_rhs(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);
  return rhs;
}

/// Symmetric band operator coupling i to i±gap only: the lower ILU(0)
/// factor is `gap` interleaved chains — moderate width, distance == gap.
sp::Csr gapped_band(index_t n, index_t gap) {
  sp::CsrBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i >= gap) b.add(i, i - gap, -1.0);
    b.add(i, i, 8.0);
    if (i + gap < n) b.add(i, i + gap, -1.0);
  }
  return b.build();
}

/// Symmetric tridiagonal-ish band (couplings at ±1 and ±2): chain-like —
/// the lower factor's wavefronts have width 1.
sp::Csr tight_band(index_t n) {
  sp::CsrBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i >= 2) b.add(i, i - 2, -1.0);
    if (i >= 1) b.add(i, i - 1, -1.0);
    b.add(i, i, 8.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
    if (i + 2 < n) b.add(i, i + 2, -1.0);
  }
  return b.build();
}

/// Deterministic random symmetric permutation.
std::vector<index_t> shuffled_perm(index_t n, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  gen::SplitMix64 rng(seed);
  for (index_t i = n - 1; i > 0; --i) {
    const index_t j = static_cast<index_t>(
        rng.next() % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

/// Synthetic L/U pair whose dependence DAG is `width` interleaved chains
/// (deep, narrow wavefronts) with an extra scattered LONG-distance edge
/// per row — the shape where flags pipeline and barriers would serialize.
struct ScatteredChains {
  sp::Csr l, u;
};

ScatteredChains scattered_chains(index_t n, index_t width) {
  sp::CsrBuilder bl(n, n), bu(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i >= width) bl.add(i, i - width, -0.25);
    if (i >= 64) {
      // Deterministic long edge: distance in [64, 64 + n/2).
      const index_t d = 64 + (i * 97) % (n / 2);
      if (i >= d) bl.add(i, i - d, -0.125);
    }
    bl.add(i, i, 1.0);  // unit diagonal, stored last like an ILU(0) L
    bu.add(i, i, 2.0);  // diagonal first
    if (i + width < n) bu.add(i, i + width, -0.25);
    if (i + 64 < n) {
      const index_t d = 64 + (i * 61) % (n / 2);
      if (i + d < n) bu.add(i, i + d, -0.125);
    }
  }
  return {bl.build(), bu.build()};
}

void expect_bitwise_fused(sp::TrisolvePlan& plan, const sp::Csr& l,
                          const sp::Csr& u, std::uint64_t seed,
                          const char* what) {
  const index_t n = l.rows;
  const auto rhs = random_rhs(n, seed);
  std::vector<double> t(static_cast<std::size_t>(n)),
      z_seq(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(l, rhs, t);
  sp::trisolve_upper_seq(u, t, z_seq);
  plan.solve(rhs, z);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
              z[static_cast<std::size_t>(i)])
        << what << " row " << i;
  }
}

}  // namespace

TEST(StrategySelection, AutoPicksLevelBarrierForWideStencilFactor) {
  // 24x24 five-point ILU(0): ~47 wavefronts of average width ~12 — wide
  // and shallow at 4 processors, so barriers beat flags.
  const sp::IluFactors f = sp::ilu0(gen::five_point(24, 24));
  sp::PlanOptions opts;
  opts.nthreads = 4;
  opts.strategy = ExecutionStrategy::kAuto;
  opts.calibration_epochs = 0;  // assert the heuristic opening bid itself
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  EXPECT_EQ(plan.strategy(), ExecutionStrategy::kLevelBarrier);
  EXPECT_EQ(plan.telemetry().requested, ExecutionStrategy::kAuto);
  EXPECT_FALSE(plan.telemetry().rationale.empty());
  EXPECT_GT(plan.telemetry().structure.levels, 0);
  EXPECT_EQ(plan.telemetry().procs, 4u);

  rt::DispatchProbe probe(pool());
  expect_bitwise_fused(plan, f.l, f.u, 11, "stencil/level-barrier");
  EXPECT_EQ(probe.delta(), 1u) << "level-barrier fused solve: one dispatch";
}

TEST(StrategySelection, AutoPicksDoacrossForScatteredLongDistanceDeps) {
  // Deep narrow DAG (4 interleaved chains) with scattered long edges:
  // too narrow for cheap barriers, too long-range for static blocks.
  const ScatteredChains m = scattered_chains(2048, 4);
  sp::PlanOptions opts;
  opts.nthreads = 4;
  opts.strategy = ExecutionStrategy::kAuto;
  opts.calibration_epochs = 0;  // assert the heuristic opening bid itself
  sp::TrisolvePlan plan(pool(), m.l, m.u, opts);
  EXPECT_EQ(plan.strategy(), ExecutionStrategy::kDoacross);
  EXPECT_FALSE(plan.telemetry().rationale.empty());
  EXPECT_GT(plan.telemetry().structure.max_distance, 64);

  rt::DispatchProbe probe(pool());
  expect_bitwise_fused(plan, m.l, m.u, 12, "scattered/doacross");
  EXPECT_EQ(probe.delta(), 1u);
}

TEST(StrategySelection, AutoStaysBitwiseOnGappedBand) {
  // Couplings at ±4 only: width-4 wavefronts, max distance 4 — short
  // dependences under moderate width. Whatever Auto opens with and
  // whatever the race locks in, every solve is the sequential answer.
  core::tuning_cache().clear();
  const sp::IluFactors f = sp::ilu0(gapped_band(600, 4));
  sp::PlanOptions opts;
  opts.nthreads = 4;
  opts.strategy = ExecutionStrategy::kAuto;
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  EXPECT_FALSE(plan.telemetry().rationale.empty());
  EXPECT_EQ(plan.telemetry().structure.max_distance, 4);

  for (std::uint64_t seed = 13; seed < 23; ++seed) {  // spans the race
    expect_bitwise_fused(plan, f.l, f.u, seed, "gapped-band");
  }
  EXPECT_FALSE(plan.calibrating());
  EXPECT_NE(plan.strategy(), ExecutionStrategy::kAuto);
  core::tuning_cache().clear();
}

TEST(StrategySelection, RcmRecoveredBandIsChainLikeAndGoesSerial) {
  // A shuffled tight band hides its chain: scattered numbering gives a
  // shallow-looking DAG. RCM recovers the band; the recovered factor's
  // wavefronts have width ~1 and Auto correctly refuses to parallelize.
  const index_t n = 400;
  const sp::Csr band = tight_band(n);
  const sp::Csr shuffled =
      sp::permute_symmetric(band, shuffled_perm(n, 99));
  const sp::Csr recovered =
      sp::permute_symmetric(shuffled, sp::rcm_order(shuffled));
  EXPECT_LE(sp::bandwidth(recovered), 4);

  const sp::IluFactors f_shuf = sp::ilu0(shuffled);
  const sp::IluFactors f_rcm = sp::ilu0(recovered);
  const auto s_shuf = sp::measure_lower_solve(f_shuf.l);
  const auto s_rcm = sp::measure_lower_solve(f_rcm.l);
  EXPECT_LT(s_rcm.max_distance, s_shuf.max_distance)
      << "RCM must shorten dependence distances";
  EXPECT_LT(s_rcm.avg_level_width, 1.5) << "recovered band is a chain";

  sp::PlanOptions opts;
  opts.nthreads = 4;
  opts.strategy = ExecutionStrategy::kAuto;
  opts.calibration_epochs = 0;  // assert the heuristic opening bid itself
  sp::TrisolvePlan plan(pool(), f_rcm.l, f_rcm.u, opts);
  EXPECT_EQ(plan.strategy(), ExecutionStrategy::kSerial);
  EXPECT_FALSE(plan.telemetry().rationale.empty());

  // Serial strategy: bitwise identical AND zero pool dispatches.
  rt::DispatchProbe probe(pool());
  expect_bitwise_fused(plan, f_rcm.l, f_rcm.u, 14, "rcm-band/serial");
  EXPECT_EQ(probe.delta(), 0u) << "serial plan must never wake the pool";

  // The shuffled twin still has exploitable structure.
  sp::TrisolvePlan plan_shuf(pool(), f_shuf.l, f_shuf.u, opts);
  EXPECT_NE(plan_shuf.strategy(), ExecutionStrategy::kSerial);
  expect_bitwise_fused(plan_shuf, f_shuf.l, f_shuf.u, 15, "shuffled band");
}

TEST(StrategySelection, SingleThreadAutoGoesSerial) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(12, 12));
  sp::PlanOptions opts;
  opts.nthreads = 1;
  opts.strategy = ExecutionStrategy::kAuto;
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  EXPECT_EQ(plan.strategy(), ExecutionStrategy::kSerial);
  EXPECT_TRUE(plan.order_racing()) << "a race runs at one thread too";
  rt::DispatchProbe probe(pool());
  expect_bitwise_fused(plan, f.l, f.u, 16, "1-thread/serial");
  // Racing the walk order, and walking the winner, costs no dispatch.
  for (std::uint64_t seed = 17; plan.order_racing(); ++seed) {
    ASSERT_LT(seed, 64u);
    expect_bitwise_fused(plan, f.l, f.u, seed, "1-thread order race");
  }
  expect_bitwise_fused(plan, f.l, f.u, 64, "1-thread locked in");
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(StrategySelection, RandomLoopDepsGetConcreteAdviceWithRationale) {
  // The general-loop workload generator feeds the DepGraph overload; the
  // advisor must always land on a concrete strategy with a reason.
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    const gen::RandomLoop rl = gen::make_random_loop({.n = 800}, seed);
    const auto a = core::advise_schedule(gen::random_loop_deps(rl), 4);
    EXPECT_NE(a.strategy, core::ExecStrategy::kAuto);
    EXPECT_FALSE(a.rationale.empty()) << "seed " << seed;
  }
}

TEST(StrategyExecution, EveryStrategyBitwiseAcrossThreadsAndBatchShapes) {
  // The acceptance matrix: all four strategy knobs x thread counts 1/2/4
  // x {fused solve, solve_batch k in {1, 8}}, every result
  // bitwise identical to the sequential path, with the dispatch budget
  // asserted (1 for parallel strategies, 0 for serial).
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  const index_t n = f.l.rows;

  for (ExecutionStrategy req :
       {ExecutionStrategy::kDoacross, ExecutionStrategy::kLevelBarrier,
        ExecutionStrategy::kSerial, ExecutionStrategy::kAuto}) {
    for (unsigned nth : {1u, 2u, 4u}) {
      sp::PlanOptions opts;
      opts.nthreads = nth;
      opts.strategy = req;
      // Calibration off: the dispatch budget below asserts one strategy
      // per plan; the calibration race itself is covered by the
      // StrategyCalibration suite.
      opts.calibration_epochs = 0;
      sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
      ASSERT_NE(plan.strategy(), ExecutionStrategy::kAuto);
      ASSERT_FALSE(plan.telemetry().rationale.empty());
      const std::uint64_t per_solve =
          plan.strategy() == ExecutionStrategy::kSerial ? 0u : 1u;
      const char* sname = core::to_string(plan.strategy());

      // Fused single solve.
      rt::DispatchProbe probe(pool());
      expect_bitwise_fused(plan, f.l, f.u,
                           400 + nth + static_cast<unsigned>(req), sname);
      EXPECT_EQ(probe.delta(), per_solve) << sname << " nth=" << nth;

      // Batched solves, k in {1, 8}.
      for (index_t k : {1, 8}) {
        const auto b = random_rhs(n * k, 600 + static_cast<unsigned>(k));
        std::vector<double> x_ref(static_cast<std::size_t>(n * k));
        for (index_t c = 0; c < k; ++c) {
          std::vector<double> t(static_cast<std::size_t>(n));
          sp::trisolve_lower_seq(
              f.l,
              std::span<const double>(b.data() + c * n,
                                      static_cast<std::size_t>(n)),
              t);
          sp::trisolve_upper_seq(
              f.u, t,
              std::span<double>(x_ref.data() + c * n,
                                static_cast<std::size_t>(n)));
        }
        std::vector<double> x(static_cast<std::size_t>(n * k), 0.0);
        probe.rebase();
        plan.solve_batch(b, x, k);
        EXPECT_EQ(probe.delta(), per_solve)
            << sname << " nth=" << nth << " k=" << k;
        for (index_t i = 0; i < n * k; ++i) {
          ASSERT_EQ(x_ref[static_cast<std::size_t>(i)],
                    x[static_cast<std::size_t>(i)])
              << sname << " nth=" << nth << " k=" << k << " elem " << i;
        }
      }
    }
  }
}

TEST(StrategyExecution, ExplicitStrategyWorksInsidePcg) {
  // Every strategy knob of the pool-taking entry point converges on the
  // same iteration path as the sequential ILU(0) preconditioner.
  const sp::Csr a = gen::five_point(20, 20);
  const auto b = random_rhs(a.rows, 77);
  std::vector<double> x_seq(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_seq = solve::pcg(a, b, x_seq, solve::Ilu0Preconditioner{a});
  ASSERT_TRUE(rep_seq.converged);

  for (ExecutionStrategy s :
       {ExecutionStrategy::kAuto, ExecutionStrategy::kDoacross,
        ExecutionStrategy::kLevelBarrier, ExecutionStrategy::kSerial}) {
    std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
    solve::CgOptions opts;
    opts.strategy = s;
    const auto rep = solve::pcg(pool(), a, b, x, opts);
    EXPECT_TRUE(rep.converged) << core::to_string(s);
    EXPECT_EQ(rep.iterations, rep_seq.iterations) << core::to_string(s);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x_seq[i], x[i]) << core::to_string(s) << " " << i;
    }
  }
}

TEST(StrategyExecution, BatchDriverReportsStrategyTelemetry) {
  core::tuning_cache().clear();
  const sp::Csr a = gen::five_point(14, 14);
  solve::BatchDriverOptions opts;  // strategy defaults to kAuto: calibrates
  solve::BatchDriver driver(pool(), a, opts);

  const auto b = random_rhs(a.rows, 88);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  driver.enqueue(b, x);
  const auto rep = driver.drain();
  EXPECT_EQ(rep.converged, 1u);
  // The plan's telemetry carries the post-drain decision even though the
  // race ran across this very drain.
  const sp::PlanTelemetry& t = driver.preconditioner().plan().telemetry();
  EXPECT_NE(t.strategy, ExecutionStrategy::kAuto);
  EXPECT_FALSE(t.rationale.empty());
  ASSERT_TRUE(t.race.calibrated)
      << "a Krylov drain supplies more than enough solves to finish the race";
  EXPECT_FALSE(t.race.cache_hit);
  EXPECT_GT(t.race.exploration_epochs, 0);

  // A second driver over the same pattern hits the process-wide tuning
  // cache: zero exploration epochs, same locked-in strategy.
  solve::BatchDriver second(pool(), a, opts);
  std::vector<double> x2(static_cast<std::size_t>(a.rows), 0.0);
  second.enqueue(b, x2);
  second.drain();
  const sp::PlanTelemetry& t2 = second.preconditioner().plan().telemetry();
  EXPECT_TRUE(t2.race.calibrated);
  EXPECT_TRUE(t2.race.cache_hit);
  EXPECT_EQ(t2.race.exploration_epochs, 0);
  EXPECT_EQ(t2.strategy, t.strategy);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x[i], x2[i]) << "cache-hit drain must stay bitwise, row " << i;
  }
  core::tuning_cache().clear();
}

TEST(StrategyCalibration, ExplorationEpochsBitwiseAndLockInMatchesBudget) {
  // Tentpole acceptance (a)+(b): every exploration epoch is bitwise
  // identical to the sequential reference (strategy switches are
  // invisible in the answers), and the plan locks in exactly when the
  // per-candidate budget is spent.
  core::tuning_cache().clear();
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  sp::PlanOptions opts;
  opts.nthreads = 2;
  opts.strategy = ExecutionStrategy::kAuto;
  opts.calibration_epochs = 2;
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  ASSERT_TRUE(plan.calibrating());
  ASSERT_NE(plan.strategy(), ExecutionStrategy::kAuto)
      << "the heuristic opening bid runs while the race explores";

  // Three candidates — serial, doacross, level-barrier — each timed for
  // calibration_epochs solves.
  const std::size_t budget =
      3 * static_cast<std::size_t>(opts.calibration_epochs);
  ASSERT_EQ(plan.telemetry().race.timings.size(), 3u);
  std::size_t solves = 0;
  while (plan.calibrating()) {
    ASSERT_LT(solves, budget) << "race must lock in after its budget";
    expect_bitwise_fused(plan, f.l, f.u, 700 + solves, "exploration epoch");
    ++solves;
  }
  EXPECT_EQ(solves, budget);

  const core::RaceState<core::ExecStrategy>& race = plan.telemetry().race;
  EXPECT_TRUE(race.calibrated);
  EXPECT_FALSE(race.cache_hit);
  EXPECT_EQ(race.exploration_epochs, static_cast<int>(budget));
  double best_us = 0.0;
  bool winner_raced = false;
  for (const core::RaceTiming<core::ExecStrategy>& t : race.timings) {
    EXPECT_EQ(t.epochs, opts.calibration_epochs);
    EXPECT_GT(t.best_us, 0.0);
    if (t.choice == plan.strategy()) {
      winner_raced = true;
      best_us = t.best_us;
    }
  }
  EXPECT_TRUE(winner_raced) << "the winner must be one of the candidates";
  for (const core::RaceTiming<core::ExecStrategy>& t : race.timings) {
    EXPECT_GE(t.best_us, best_us) << "winner must be the measured argmin";
  }
  EXPECT_NE(plan.telemetry().rationale.find("calibrated"), std::string::npos);

  // Locked in: further solves stay bitwise on the winner.
  expect_bitwise_fused(plan, f.l, f.u, 900, "post lock-in");
  core::tuning_cache().clear();
}

TEST(StrategyCalibration, TuningCacheHitRunsZeroExplorationEpochs) {
  // Tentpole acceptance (c): a second plan over the same (pattern,
  // threads) adopts the cached winner without racing at all.
  core::tuning_cache().clear();
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  sp::PlanOptions opts;
  opts.nthreads = 2;
  opts.strategy = ExecutionStrategy::kAuto;
  sp::TrisolvePlan first(pool(), f.l, f.u, opts);
  ASSERT_TRUE(first.calibrating());
  const index_t n = f.l.rows;
  const auto rhs = random_rhs(n, 42);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::size_t guard = 0;
  while (first.calibrating()) {
    first.solve(rhs, x);
    ASSERT_LT(++guard, 64u);
  }

  sp::TrisolvePlan second(pool(), f.l, f.u, opts);
  EXPECT_FALSE(second.calibrating());
  EXPECT_TRUE(second.telemetry().race.calibrated);
  EXPECT_TRUE(second.telemetry().race.cache_hit);
  EXPECT_EQ(second.telemetry().race.exploration_epochs, 0);
  EXPECT_EQ(second.strategy(), first.strategy());
  EXPECT_NE(second.telemetry().rationale.find("tuning cache hit"),
            std::string::npos);
  expect_bitwise_fused(second, f.l, f.u, 901, "cache-hit plan");

  // The key fingerprints the thread count too: a different width races.
  sp::PlanOptions o4 = opts;
  o4.nthreads = 4;
  sp::TrisolvePlan third(pool(), f.l, f.u, o4);
  EXPECT_TRUE(third.calibrating());
  core::tuning_cache().clear();
}

TEST(StrategyCalibration, FaultDuringExplorationPoisonsWithoutFeedingCache) {
  // Tentpole acceptance (d): a fault mid-race follows the PR 6 abort
  // protocol — the plan poisons cleanly — and the aborted epoch neither
  // enters the race bookkeeping nor stores a winner in the cache.
  core::tuning_cache().clear();
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  sp::PlanOptions opts;
  opts.nthreads = 2;
  opts.strategy = ExecutionStrategy::kAuto;
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  ASSERT_TRUE(plan.calibrating());
  rt::FaultInjector inj;
  plan.set_fault_injector(&inj);

  const index_t n = f.l.rows;
  const auto rhs = random_rhs(n, 43);
  std::vector<double> x(static_cast<std::size_t>(n));
  plan.solve(rhs, x);  // one healthy epoch: bookkeeping advances
  ASSERT_EQ(plan.telemetry().race.exploration_epochs, 1);

  inj.arm_throw(rt::FaultInjector::kAnyTid, n / 2);
  EXPECT_THROW(plan.solve(rhs, x), rt::InjectedFault);
  EXPECT_TRUE(plan.poisoned());
  EXPECT_THROW(plan.solve(rhs, x), rt::PlanPoisonedError);

  // The faulted epoch was never counted, the race never finished, and
  // nothing was stored for this fingerprint.
  EXPECT_EQ(plan.telemetry().race.exploration_epochs, 1);
  EXPECT_FALSE(plan.telemetry().race.calibrated);
  EXPECT_EQ(core::tuning_cache().stats().stores, 0u);
  EXPECT_EQ(core::tuning_cache().stats().entries, 0u);
  core::tuning_cache().clear();
}

// --- the order race of serial single-RHS walks (DESIGN.md §9/§13) -------

namespace {

/// ILU(0) factors of the generated inputs the order race must stay
/// bitwise on: the natural-order stencil (level order helps), its RCM
/// permutation (level order hurts), a randomly scattered band, n = 0 and
/// n = 1, and a pattern where every third row has no off-diagonal entry.
std::vector<std::pair<std::string, sp::IluFactors>> order_race_inputs() {
  std::vector<std::pair<std::string, sp::IluFactors>> in;
  const sp::Csr stencil = gen::five_point(14, 11);
  in.emplace_back("stencil", sp::ilu0(stencil));
  in.emplace_back("stencil-rcm", sp::ilu0(sp::permute_symmetric(
                                     stencil, sp::rcm_order(stencil))));
  const index_t band_n = 300;
  in.emplace_back("band-scattered",
                  sp::ilu0(sp::permute_symmetric(gapped_band(band_n, 3),
                                                 shuffled_perm(band_n, 17))));
  in.emplace_back("n=0", sp::ilu0(sp::CsrBuilder(0, 0).build()));
  sp::CsrBuilder one(1, 1);
  one.add(0, 0, 3.0);
  in.emplace_back("n=1", sp::ilu0(one.build()));
  const index_t m = 90;
  sp::CsrBuilder holes(m, m);
  for (index_t i = 0; i < m; ++i) {
    const bool isolated = i % 3 == 0;
    if (!isolated && i >= 2 && (i - 2) % 3 != 0) holes.add(i, i - 2, -1.0);
    if (!isolated && i >= 1 && (i - 1) % 3 != 0) holes.add(i, i - 1, -1.0);
    holes.add(i, i, 6.0);
    if (!isolated && i + 1 < m && (i + 1) % 3 != 0) holes.add(i, i + 1, -1.0);
    if (!isolated && i + 2 < m && (i + 2) % 3 != 0) holes.add(i, i + 2, -1.0);
  }
  in.emplace_back("empty-rows", sp::ilu0(holes.build()));
  return in;
}

/// One single-RHS run through `api` (0 solve, 1 solve_strip k = 1 in
/// place, 2 solve_strip k = 1, 3 solve_batch k = 1), checked bitwise
/// against the sequential solves.
void expect_bitwise_single(sp::TrisolvePlan& plan, const sp::IluFactors& f,
                           int api, std::uint64_t seed,
                           const std::string& what) {
  const index_t n = f.l.rows;
  const std::size_t nn = static_cast<std::size_t>(n);
  const auto rhs = random_rhs(n, seed);
  std::vector<double> y_seq(nn), z_seq(nn), z(nn, -1.0);
  sp::trisolve_lower_seq(f.l, rhs, y_seq);
  sp::trisolve_upper_seq(f.u, y_seq, z_seq);
  switch (api) {
    case 0:
      plan.solve(rhs, z);
      break;
    case 1:
      z = rhs;
      plan.solve_strip(z, z, 1);
      break;
    case 2:
      plan.solve_strip(rhs, z, 1);
      break;
    default:
      plan.solve_batch(rhs, z, 1);
      break;
  }
  ASSERT_EQ(z, z_seq) << what << " api " << api;
}

}  // namespace

TEST(OrderRace, EveryEpochBitwiseOnGeneratedInputsAtEveryWidth) {
  // Every raced run — source order, then the wavefront walk — and every
  // run after lock-in is bitwise the sequential solves, through every
  // single-RHS entry point, for pinned-serial and Auto plans at widths
  // 1, 2 and 4, on the scalar and the dispatched kernel tables.
  for (const auto& [name, f] : order_race_inputs()) {
    for (unsigned nth : {1u, 2u, 4u}) {
      for (ExecutionStrategy s :
           {ExecutionStrategy::kSerial, ExecutionStrategy::kAuto}) {
        for (sp::kernels::KernelChoice kernel :
             {sp::kernels::KernelChoice::kVector,
              sp::kernels::KernelChoice::kScalar}) {
          const std::string cfg =
              name + " nth=" + std::to_string(nth) + " " +
              core::to_string(s) + " kernel=" + sp::kernels::to_string(kernel);
          sp::PlanOptions opts;
          opts.nthreads = nth;
          opts.strategy = s;
          opts.kernel = kernel;
          opts.calibration_epochs = 2;
          opts.use_tuning_cache = false;
          sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
          int run = 0;
          while (plan.calibrating() || plan.order_racing()) {
            ASSERT_LT(run, 64) << cfg << ": the races must lock in";
            expect_bitwise_single(plan, f, run % 4, 40 + run,
                                  cfg + " epoch " + std::to_string(run));
            ++run;
          }
          for (int api = 0; api < 4; ++api) {
            expect_bitwise_single(plan, f, api, 90 + api, cfg + " locked in");
          }
          const core::OrderRaceState& r = plan.telemetry().order_race;
          const bool raced =
              plan.strategy() == ExecutionStrategy::kSerial && f.l.rows > 0;
          EXPECT_EQ(r.calibrated, raced) << cfg;
          if (!raced) continue;
          EXPECT_EQ(r.exploration_epochs, 2 * opts.calibration_epochs) << cfg;
          EXPECT_EQ(plan.lower_reordering() != nullptr,
                    plan.telemetry().order == core::WalkOrder::kWavefront)
              << cfg << ": the loser's orders are dropped";
          EXPECT_NE(plan.telemetry().rationale.find("walk order"),
                    std::string::npos)
              << cfg;
        }
      }
    }
  }
}

TEST(OrderRace, AdvancesOnlyOnSingleRhsRunsOnTheCallingThread) {
  // Strips of k >= 2 and single columns solved inside a pool region (the
  // lane groups' reentrant entry) leave the race where it was; a single-
  // RHS run on the calling thread advances it by one.
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  const index_t n = f.l.rows;
  const std::size_t nn = static_cast<std::size_t>(n);
  sp::PlanOptions opts;
  opts.nthreads = 2;
  opts.strategy = ExecutionStrategy::kSerial;
  opts.calibration_epochs = 3;
  opts.use_tuning_cache = false;
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  ASSERT_TRUE(plan.order_racing());
  ASSERT_TRUE(plan.settled()) << "the order race never holds back settled()";
  const auto epochs = [&] {
    return plan.telemetry().order_race.exploration_epochs;
  };

  const auto b = random_rhs(n * 8, 7);
  std::vector<double> x(nn * 8);
  plan.solve_strip(b, x, 8);
  plan.solve_batch(b, x, 4);
  EXPECT_EQ(epochs(), 0);

  std::vector<std::vector<double>> xs(2, std::vector<double>(nn));
  pool().parallel_region(2, [&](unsigned tid, unsigned) {
    plan.solve_strip(std::span<const double>(b.data() + tid * nn, nn),
                     xs[tid], 1);
  });
  EXPECT_EQ(epochs(), 0) << "lane-group columns must not feed the race";
  std::vector<double> y(nn), z(nn);
  for (unsigned c = 0; c < 2; ++c) {
    sp::trisolve_lower_seq(f.l, std::span<const double>(b.data() + c * nn, nn),
                           y);
    sp::trisolve_upper_seq(f.u, y, z);
    EXPECT_EQ(xs[c], z) << "column " << c;
  }

  plan.solve(std::span<const double>(b.data(), nn), z);
  EXPECT_EQ(epochs(), 1);
  plan.solve_strip(std::span<const double>(b.data(), nn), z, 1);
  EXPECT_EQ(epochs(), 2);
}

TEST(OrderRace, TuningCacheHitReplaysTheVerdictWithoutExploring) {
  core::tuning_cache().clear();
  const sp::IluFactors f = sp::ilu0(gen::five_point(20, 20));
  sp::PlanOptions opts;
  opts.nthreads = 1;
  opts.strategy = ExecutionStrategy::kSerial;
  sp::TrisolvePlan first(pool(), f.l, f.u, opts);
  ASSERT_TRUE(first.order_racing());
  int guard = 0;
  while (first.order_racing()) {
    expect_bitwise_fused(first, f.l, f.u, 300 + guard, "raced");
    ASSERT_LT(++guard, 64);
  }
  EXPECT_FALSE(first.telemetry().order_race.cache_hit);

  // Auto at one thread goes serial and adopts the same verdict: one
  // thread walks either order at any width, so the key ignores it.
  for (ExecutionStrategy s :
       {ExecutionStrategy::kSerial, ExecutionStrategy::kAuto}) {
    sp::PlanOptions o = opts;
    o.strategy = s;
    sp::TrisolvePlan second(pool(), f.l, f.u, o);
    const core::OrderRaceState& r = second.telemetry().order_race;
    EXPECT_FALSE(second.order_racing()) << core::to_string(s);
    EXPECT_TRUE(r.calibrated && r.cache_hit) << core::to_string(s);
    EXPECT_EQ(r.exploration_epochs, 0) << core::to_string(s);
    EXPECT_TRUE(r.timings.empty()) << core::to_string(s);
    EXPECT_EQ(second.telemetry().order, first.telemetry().order);
    EXPECT_EQ(second.lower_reordering() != nullptr,
              second.telemetry().order == core::WalkOrder::kWavefront);
    expect_bitwise_fused(second, f.l, f.u, 400, "cache-hit plan");
    EXPECT_EQ(second.telemetry().order_race.exploration_epochs, 0);
  }
  core::tuning_cache().clear();
}

TEST(OrderRace, ZeroBudgetOrPackedLayoutKeepsSourceOrder) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(12, 12));
  sp::PlanOptions off;
  off.nthreads = 1;
  off.strategy = ExecutionStrategy::kSerial;
  off.calibration_epochs = 0;
  sp::PlanOptions packed = off;
  packed.calibration_epochs = 2;
  packed.layout = sp::PlanLayout::kPacked;
  for (const sp::PlanOptions& o : {off, packed}) {
    sp::TrisolvePlan plan(pool(), f.l, f.u, o);
    EXPECT_FALSE(plan.order_racing());
    EXPECT_FALSE(plan.telemetry().order_race.calibrated);
    EXPECT_EQ(plan.telemetry().order, core::WalkOrder::kSource);
    EXPECT_EQ(plan.lower_reordering(), nullptr);
    expect_bitwise_fused(plan, f.l, f.u, 500, "source order only");
  }
}
