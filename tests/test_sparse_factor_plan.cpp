// Tests for persistent ILU(0) factorization plans and value-only plan
// refresh (DESIGN.md §11): parallel numeric factorization is bitwise
// identical to the sequential ilu0() under every strategy and thread
// count; refresh_values leaves a plan bitwise identical to a full
// rebuild for both layouts and all four strategies; both stay inside
// their dispatch budgets and allocate nothing after construction; and
// pattern mismatches throw instead of corrupting plan state.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "sparse/factor_plan.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/levels.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
namespace core = pdx::core;
using pdx::index_t;

// --- global allocation probe -----------------------------------------
//
// Same idiom as test_sparse_packed.cpp: every route into the heap this
// binary has is counted, so the zero-allocation promises of factorize()
// and refresh_values() are machine-checked, not aspirational.
namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (sz + static_cast<std::size_t>(al) - 1) /
                                       static_cast<std::size_t>(al) *
                                       static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

/// The time-stepping shape: same pattern, values perturbed smoothly and
/// kept diagonally dominant so every step's ILU(0) pivots stay healthy.
sp::Csr evolve_values(const sp::Csr& base, double t) {
  sp::Csr a = base;
  for (std::size_t k = 0; k < a.val.size(); ++k) {
    a.val[k] *= 1.0 + 0.2 * std::sin(0.7 * static_cast<double>(k) + t);
  }
  return a;
}

void expect_factors_bitwise(const sp::IluFactors& ref, const sp::IluFactors& f,
                            const char* what) {
  ASSERT_EQ(ref.l.ptr, f.l.ptr) << what;
  ASSERT_EQ(ref.l.idx, f.l.idx) << what;
  ASSERT_EQ(ref.u.ptr, f.u.ptr) << what;
  ASSERT_EQ(ref.u.idx, f.u.idx) << what;
  for (std::size_t k = 0; k < ref.l.val.size(); ++k) {
    ASSERT_EQ(ref.l.val[k], f.l.val[k]) << what << " L value " << k;
  }
  for (std::size_t k = 0; k < ref.u.val.size(); ++k) {
    ASSERT_EQ(ref.u.val[k], f.u.val[k]) << what << " U value " << k;
  }
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

constexpr sp::ExecutionStrategy kStrategies[] = {
    sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross,
    sp::ExecutionStrategy::kLevelBarrier};

sp::FactorPlanOptions factor_opts(sp::ExecutionStrategy s, unsigned nth) {
  sp::FactorPlanOptions o;
  o.nthreads = nth;
  o.strategy = s;
  return o;
}

sp::PlanOptions plan_opts(sp::ExecutionStrategy s, unsigned nth,
                          sp::PlanLayout layout) {
  sp::PlanOptions o;
  o.nthreads = nth;
  o.strategy = s;
  o.layout = layout;
  return o;
}

}  // namespace

TEST(FactorPlan, ParallelFactorizationBitwiseMatchesSequential) {
  for (const sp::Csr& base :
       {gen::five_point(17, 19), gen::seven_point(6, 7, 5)}) {
    for (sp::ExecutionStrategy s : kStrategies) {
      for (unsigned nth : {1u, 2u, 4u}) {
        sp::FactorPlan plan(pool(), base, factor_opts(s, nth));
        ASSERT_EQ(plan.strategy(), s);
        sp::IluFactors f = plan.allocate_factors();
        // Several epochs through one plan, evolving values each time —
        // every numeric pass must reproduce ilu0() exactly.
        for (int step = 0; step < 3; ++step) {
          const sp::Csr a = evolve_values(base, 0.3 * step);
          const sp::IluFactors ref = sp::ilu0(a);
          plan.factorize(a, f);
          expect_factors_bitwise(ref, f, core::to_string(s));
        }
        EXPECT_EQ(plan.factorizations(), 3u);
      }
    }
  }
}

TEST(FactorPlan, FactorizeOverwritesAnIlu0Result) {
  // The factors ilu0() emits share the split pattern allocate_factors()
  // produces, so a plan can re-fill them in place — the preconditioner's
  // refactor path.
  const sp::Csr base = gen::five_point(13, 11);
  sp::IluFactors f = sp::ilu0(base);
  sp::FactorPlan plan(pool(), base,
                      factor_opts(sp::ExecutionStrategy::kDoacross, 4));
  const sp::Csr a1 = evolve_values(base, 1.0);
  plan.factorize(a1, f);
  expect_factors_bitwise(sp::ilu0(a1), f, "ilu0-allocated factors");
}

TEST(FactorPlan, AutoConsultsTheFactorAdvisor) {
  const sp::Csr a = gen::five_point(24, 24);
  // Calibration off: this test asserts the heuristic opening bid itself.
  sp::FactorPlanOptions aopts = factor_opts(sp::ExecutionStrategy::kAuto, 4);
  aopts.calibration_epochs = 0;
  sp::FactorPlan plan(pool(), a, aopts);
  const core::ScheduleAdvice advice = core::advise_factor_schedule(
      sp::measure_lower_solve(a), 4);
  EXPECT_EQ(plan.strategy(), advice.strategy);
  EXPECT_EQ(plan.telemetry().requested, sp::ExecutionStrategy::kAuto);
  EXPECT_EQ(plan.telemetry().rationale, advice.rationale);
  EXPECT_GT(plan.telemetry().structure.n, 0);
  EXPECT_GT(plan.telemetry().symbolic_bytes, 0u);
  // factor_bytes reports the Csr::memory_bytes() footprint of the pair
  // allocate_factors() hands out.
  const sp::IluFactors f = plan.allocate_factors();
  EXPECT_EQ(plan.telemetry().factor_bytes,
            f.l.memory_bytes() + f.u.memory_bytes());
}

TEST(FactorPlan, WidthTwoRaceSpendsThreeCandidateBudgets) {
  // Serial, doacross and level-barrier each get calibration_epochs timed
  // factorizations; nothing else is raced.
  core::tuning_cache().clear();
  const sp::Csr a = gen::five_point(12, 12);
  const sp::FactorPlanOptions o = factor_opts(sp::ExecutionStrategy::kAuto, 2);
  sp::FactorPlan plan(pool(), a, o);
  ASSERT_TRUE(plan.calibrating());
  sp::IluFactors f = plan.allocate_factors();
  int epochs = 0;
  while (plan.calibrating()) {
    ASSERT_LT(epochs, 64);
    plan.factorize(a, f);
    ++epochs;
  }
  EXPECT_EQ(epochs, 3 * o.calibration_epochs);
  EXPECT_EQ(plan.telemetry().race.exploration_epochs,
            3 * o.calibration_epochs);
  ASSERT_EQ(plan.telemetry().race.timings.size(), 3u);
  for (const core::RaceTiming<core::ExecStrategy>& t : plan.telemetry().race.timings) {
    EXPECT_EQ(t.epochs, o.calibration_epochs) << core::to_string(t.choice);
  }
  expect_factors_bitwise(sp::ilu0(a), f, "width-2 race");
  core::tuning_cache().clear();
}

TEST(FactorPlan, CalibrationRacesFactorizationsAndCacheSkipsSecondRace) {
  // The factor-side calibration race (DESIGN.md §13): exploration
  // factorizations stay bitwise identical to ilu0(), the plan locks in
  // after its budget, and a second plan over the same pattern hits the
  // process-wide cache (under the factor=true fingerprint) with zero
  // exploration epochs.
  core::tuning_cache().clear();
  const sp::Csr base = gen::five_point(16, 16);
  const sp::FactorPlanOptions o = factor_opts(sp::ExecutionStrategy::kAuto, 4);
  sp::FactorPlan plan(pool(), base, o);
  ASSERT_TRUE(plan.calibrating());
  ASSERT_NE(plan.strategy(), sp::ExecutionStrategy::kAuto);
  sp::IluFactors f = plan.allocate_factors();

  // Three candidates — serial, doacross, level-barrier.
  const std::size_t budget =
      3 * static_cast<std::size_t>(o.calibration_epochs);
  ASSERT_EQ(plan.telemetry().race.timings.size(), 3u);
  std::size_t epochs = 0;
  while (plan.calibrating()) {
    ASSERT_LT(epochs, budget) << "race must lock in after its budget";
    const sp::Csr a = evolve_values(base, 0.1 * static_cast<double>(epochs));
    plan.factorize(a, f);
    expect_factors_bitwise(sp::ilu0(a), f, "exploration factorization");
    ++epochs;
  }
  EXPECT_EQ(epochs, budget);
  EXPECT_TRUE(plan.telemetry().race.calibrated);
  EXPECT_FALSE(plan.telemetry().race.cache_hit);

  sp::FactorPlan second(pool(), base, o);
  EXPECT_FALSE(second.calibrating());
  EXPECT_TRUE(second.telemetry().race.cache_hit);
  EXPECT_EQ(second.telemetry().race.exploration_epochs, 0);
  EXPECT_EQ(second.strategy(), plan.strategy());
  // Locked-in and cache-hit plans still factor bitwise.
  const sp::Csr a = evolve_values(base, 1.7);
  sp::IluFactors f2 = second.allocate_factors();
  second.factorize(a, f2);
  expect_factors_bitwise(sp::ilu0(a), f2, "cache-hit factorization");
  core::tuning_cache().clear();
}

TEST(FactorPlan, FactorizeIsZeroAllocWithinDispatchBudget) {
  const sp::Csr base = gen::five_point(16, 16);
  for (sp::ExecutionStrategy s : kStrategies) {
    sp::FactorPlan plan(pool(), base, factor_opts(s, 4));
    sp::IluFactors f = plan.allocate_factors();
    const sp::Csr a = evolve_values(base, 0.5);
    plan.factorize(a, f);  // warm-up: every epoch after this is steady state

    const std::uint64_t expected_dispatches =
        s == sp::ExecutionStrategy::kSerial ? 0u : 1u;
    const rt::DispatchProbe probe(pool());
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    plan.factorize(a, f);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - a0;
    EXPECT_EQ(allocs, 0u) << core::to_string(s);
    EXPECT_EQ(probe.delta(), expected_dispatches) << core::to_string(s);
  }
}

TEST(FactorPlan, PatternMismatchThrows) {
  const sp::Csr a = gen::five_point(12, 12);
  const sp::Csr other = gen::five_point(12, 13);
  sp::FactorPlan plan(pool(), a,
                      factor_opts(sp::ExecutionStrategy::kSerial, 1));
  sp::IluFactors f = plan.allocate_factors();
  EXPECT_THROW(plan.factorize(other, f), std::invalid_argument);
  // Wrong-pattern factors are rejected too.
  sp::IluFactors wrong = sp::ilu0(other);
  EXPECT_THROW(plan.factorize(a, wrong), std::invalid_argument);
  // Factors whose per-row split COUNTS coincide but whose columns differ
  // must also be rejected — writing through the wrong columns would
  // corrupt silently. Rows: {0}, {0,1}, {1,2} vs {0}, {0,1}, {0,2}.
  {
    sp::CsrBuilder ba(3, 3), bb(3, 3);
    for (auto* b : {&ba, &bb}) {
      b->add(0, 0, 4.0);
      b->add(1, 0, -1.0);
      b->add(1, 1, 4.0);
      b->add(2, 2, 4.0);
    }
    ba.add(2, 1, -1.0);
    bb.add(2, 0, -1.0);
    const sp::Csr ma = ba.build(), mb = bb.build();
    sp::FactorPlan pb(pool(), mb,
                      factor_opts(sp::ExecutionStrategy::kSerial, 1));
    sp::IluFactors fa = sp::ilu0(ma);
    ASSERT_EQ(fa.l.ptr, pb.allocate_factors().l.ptr);  // counts coincide
    EXPECT_THROW(pb.factorize(mb, fa), std::invalid_argument);
  }
  // And the plan stays usable after a rejected call.
  plan.factorize(a, f);
  expect_factors_bitwise(sp::ilu0(a), f, "after rejected factorize");
}

TEST(FactorPlan, BadPivotThrowsAfterTheRegionCompletes) {
  // A(1,1) eliminates to exactly zero: u11 = 1 - 1*1. The sequential
  // loop throws at row 1; the parallel plan must report the same row
  // without deadlocking peers.
  sp::CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 1.0);
  const sp::Csr a = b.build();
  EXPECT_THROW(sp::ilu0(a), std::runtime_error);
  for (sp::ExecutionStrategy s : kStrategies) {
    sp::FactorPlan plan(pool(), a, factor_opts(s, 2));
    sp::IluFactors f = plan.allocate_factors();
    EXPECT_THROW(plan.factorize(a, f), std::runtime_error)
        << core::to_string(s);
  }
}

TEST(FactorPlan, FaultDuringExplorationPoisonsWithoutFeedingCache) {
  // The factor-side mirror of StrategyCalibration's fault test: a worker
  // fault mid-race poisons the plan, and the aborted factorization
  // neither enters the race bookkeeping nor stores a winner.
  core::tuning_cache().clear();
  const sp::Csr a = gen::five_point(16, 16);
  sp::FactorPlan plan(pool(), a,
                      factor_opts(sp::ExecutionStrategy::kAuto, 2));
  ASSERT_TRUE(plan.calibrating());
  rt::FaultInjector inj;
  plan.set_fault_injector(&inj);
  sp::IluFactors f = plan.allocate_factors();
  plan.factorize(a, f);  // one healthy epoch: bookkeeping advances
  ASSERT_EQ(plan.telemetry().race.exploration_epochs, 1);

  inj.arm_throw(rt::FaultInjector::kAnyTid, a.rows / 2);
  EXPECT_THROW(plan.factorize(a, f), rt::InjectedFault);
  EXPECT_EQ(inj.faults_fired(), 1);
  EXPECT_TRUE(plan.poisoned());
  EXPECT_THROW(plan.factorize(a, f), rt::PlanPoisonedError);

  EXPECT_EQ(plan.telemetry().race.exploration_epochs, 1);
  EXPECT_FALSE(plan.telemetry().race.calibrated);
  EXPECT_EQ(core::tuning_cache().stats().stores, 0u);
  EXPECT_EQ(core::tuning_cache().stats().entries, 0u);
  core::tuning_cache().clear();
}

TEST(FactorPlan, PivotFailureDuringExplorationIsNotAnEpoch) {
  // A kThrow pivot failure mid-race is a clean error, not a fault: the
  // plan throws without counting the epoch, stays unpoisoned, and the
  // next good factorization resumes the race where it stood.
  core::tuning_cache().clear();
  const sp::Csr a = gen::five_point(16, 16);
  sp::FactorPlan plan(pool(), a,
                      factor_opts(sp::ExecutionStrategy::kAuto, 2));
  ASSERT_TRUE(plan.calibrating());
  rt::FaultInjector inj;
  plan.set_fault_injector(&inj);
  sp::IluFactors f = plan.allocate_factors();
  plan.factorize(a, f);
  ASSERT_EQ(plan.telemetry().race.exploration_epochs, 1);

  inj.arm_pivot_corruption(a.rows / 2);
  EXPECT_THROW(plan.factorize(a, f), std::runtime_error);
  EXPECT_EQ(inj.pivots_corrupted(), 1);
  EXPECT_FALSE(plan.poisoned());
  EXPECT_EQ(plan.telemetry().race.exploration_epochs, 1);
  EXPECT_TRUE(plan.calibrating());

  plan.factorize(a, f);
  EXPECT_EQ(plan.telemetry().race.exploration_epochs, 2);
  expect_factors_bitwise(sp::ilu0(a), f, "after pivot failure");
  core::tuning_cache().clear();
}

TEST(TrisolvePlanRefresh, BitwiseMatchesFullRebuildAcrossStrategiesAndLayouts) {
  const sp::Csr base = gen::five_point(15, 17);
  const index_t n = base.rows;
  const auto rhs = random_vec(n, 41);
  for (sp::ExecutionStrategy s : kStrategies) {
    for (sp::PlanLayout layout :
         {sp::PlanLayout::kPacked, sp::PlanLayout::kCsrView}) {
      // Build the plan over step 0's values, then step the values twice:
      // each refresh must leave the plan solving exactly like a plan
      // freshly built over the new factors.
      sp::IluFactors f = sp::ilu0(base);
      sp::TrisolvePlan plan(pool(), f.l, f.u, plan_opts(s, 4, layout));
      sp::FactorPlan fact(pool(), base, factor_opts(s, 4));
      for (int step = 1; step <= 2; ++step) {
        const sp::Csr a = evolve_values(base, 0.4 * step);
        fact.factorize(a, f);
        plan.refresh_values(f);
        sp::IluFactors f2 = sp::ilu0(a);
        sp::TrisolvePlan rebuilt(pool(), f2.l, f2.u,
                                 plan_opts(s, 4, layout));
        std::vector<double> z_r(static_cast<std::size_t>(n)),
            z_f(static_cast<std::size_t>(n));
        plan.solve(rhs, z_r);
        rebuilt.solve(rhs, z_f);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(z_f[static_cast<std::size_t>(i)],
                    z_r[static_cast<std::size_t>(i)])
              << core::to_string(s) << " " << sp::to_string(layout)
              << " step " << step << " row " << i;
        }
      }
      EXPECT_EQ(plan.refreshes(), 2u);
      EXPECT_GE(plan.telemetry().refresh_ms, 0.0);
    }
  }
}

TEST(TrisolvePlanRefresh, RefreshIsZeroAllocWithinDispatchBudget) {
  const sp::Csr base = gen::five_point(16, 16);
  for (sp::ExecutionStrategy s : kStrategies) {
    for (sp::PlanLayout layout :
         {sp::PlanLayout::kPacked, sp::PlanLayout::kCsrView}) {
      sp::IluFactors f = sp::ilu0(base);
      sp::TrisolvePlan plan(pool(), f.l, f.u, plan_opts(s, 4, layout));
      plan.refresh_values(f);  // warm-up

      // Budget: one dispatch re-streams both factors' slabs for a
      // parallel packed plan; serial plans repack inline and kCsrView is
      // a pointer swap — zero dispatches either way.
      const bool parallel_packed = layout == sp::PlanLayout::kPacked &&
                                   s != sp::ExecutionStrategy::kSerial;
      const rt::DispatchProbe probe(pool());
      const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      plan.refresh_values(f);
      const std::uint64_t allocs =
          g_allocs.load(std::memory_order_relaxed) - a0;
      EXPECT_EQ(allocs, 0u)
          << core::to_string(s) << " " << sp::to_string(layout);
      EXPECT_EQ(probe.delta(), parallel_packed ? 1u : 0u)
          << core::to_string(s) << " " << sp::to_string(layout);
    }
  }
}

TEST(TrisolvePlanRefresh, PatternMismatchThrows) {
  const sp::Csr a = gen::five_point(12, 12);
  sp::IluFactors f = sp::ilu0(a);
  sp::TrisolvePlan plan(pool(), f.l, f.u);
  sp::IluFactors other = sp::ilu0(gen::five_point(12, 13));
  EXPECT_THROW(plan.refresh_values(other), std::invalid_argument);
  // A rejected refresh leaves the plan bound to its original factors.
  const index_t n = a.rows;
  const auto rhs = random_vec(n, 9);
  std::vector<double> t(static_cast<std::size_t>(n)),
      z_seq(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(f.l, rhs, t);
  sp::trisolve_upper_seq(f.u, t, z_seq);
  plan.solve(rhs, z);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
              z[static_cast<std::size_t>(i)]);
  }
}

TEST(TrisolvePlanRefresh, ForeignFactorsWithEqualPatternAreAdopted) {
  // kCsrView refresh is a pointer swap: a *different* IluFactors object
  // with the identical pattern is legal, and subsequent solves read the
  // new object's values.
  const sp::Csr base = gen::five_point(10, 10);
  sp::IluFactors f0 = sp::ilu0(base);
  sp::TrisolvePlan plan(pool(), f0.l, f0.u,
                        plan_opts(sp::ExecutionStrategy::kDoacross, 2,
                                  sp::PlanLayout::kCsrView));
  const sp::Csr a1 = evolve_values(base, 2.0);
  sp::IluFactors f1 = sp::ilu0(a1);
  plan.refresh_values(f1);
  const index_t n = base.rows;
  const auto rhs = random_vec(n, 77);
  std::vector<double> t(static_cast<std::size_t>(n)),
      z_seq(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(f1.l, rhs, t);
  sp::trisolve_upper_seq(f1.u, t, z_seq);
  plan.solve(rhs, z);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
              z[static_cast<std::size_t>(i)]);
  }
}

TEST(Refactor, PreconditionerRefactorMatchesFreshBitwise) {
  const sp::Csr base = gen::five_point(14, 14);
  const index_t n = base.rows;
  const auto r = random_vec(n, 5);
  rt::ThreadPool& p = pool();
  solve::DoacrossIlu0Preconditioner stepped(p, base);
  EXPECT_EQ(stepped.factor_plan(), nullptr);
  for (int step = 1; step <= 3; ++step) {
    const sp::Csr a = evolve_values(base, 0.6 * step);
    stepped.refactor(a);
    solve::DoacrossIlu0Preconditioner fresh(p, a);
    std::vector<double> z_s(static_cast<std::size_t>(n)),
        z_f(static_cast<std::size_t>(n));
    stepped.apply(r, z_s);
    fresh.apply(r, z_f);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(z_f[static_cast<std::size_t>(i)],
                z_s[static_cast<std::size_t>(i)])
          << "step " << step << " row " << i;
    }
  }
  ASSERT_NE(stepped.factor_plan(), nullptr);
  EXPECT_EQ(stepped.factor_plan()->factorizations(), 3u);
  EXPECT_EQ(stepped.plan().refreshes(), 3u);
  // The FactorPlan carries the refactor decision, the telemetry its cost.
  EXPECT_NE(stepped.factor_plan()->strategy(), sp::ExecutionStrategy::kAuto);
  EXPECT_GE(stepped.plan().telemetry().factor_ms, 0.0);
  EXPECT_THROW(stepped.refactor(gen::five_point(14, 15)),
               std::invalid_argument);
}

TEST(Refactor, BatchDriverHookForwardsTelemetryAndStaysBitwise) {
  const sp::Csr base = gen::five_point(13, 13);
  const index_t n = base.rows;
  const auto b = random_vec(n, 23);
  rt::ThreadPool& p = pool();

  solve::BatchDriver driver(p, base);
  std::vector<double> x0(static_cast<std::size_t>(n), 0.0);
  driver.enqueue(b, x0);
  // Refactor with systems queued is a protocol error.
  const sp::Csr a1 = evolve_values(base, 1.3);
  EXPECT_THROW(driver.refactor(a1), std::logic_error);
  driver.drain();

  driver.refactor(a1);
  std::vector<double> x_s(static_cast<std::size_t>(n), 0.0);
  driver.enqueue(b, x_s);
  const solve::BatchReport rep = driver.drain();
  EXPECT_EQ(rep.converged, rep.jobs);
  const sp::PlanTelemetry& t = driver.preconditioner().plan().telemetry();
  ASSERT_NE(driver.preconditioner().factor_plan(), nullptr);
  EXPECT_NE(driver.preconditioner().factor_plan()->strategy(),
            sp::ExecutionStrategy::kAuto);
  EXPECT_GE(t.factor_ms, 0.0);
  EXPECT_GE(t.refresh_ms, 0.0);

  // Bitwise identical to a driver built from scratch over a1.
  solve::BatchDriver fresh(p, a1);
  std::vector<double> x_f(static_cast<std::size_t>(n), 0.0);
  fresh.enqueue(b, x_f);
  fresh.drain();
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(x_f[static_cast<std::size_t>(i)],
              x_s[static_cast<std::size_t>(i)])
        << "row " << i;
  }
}

TEST(Ilu0, ExactReservationAndSplitPattern) {
  const sp::Csr a = gen::seven_point(5, 6, 4);
  const sp::IluFactors f = sp::ilu0(a);
  // The counted split allocates every array exactly once at final size.
  EXPECT_EQ(f.l.idx.capacity(), f.l.idx.size());
  EXPECT_EQ(f.l.val.capacity(), f.l.val.size());
  EXPECT_EQ(f.u.idx.capacity(), f.u.idx.size());
  EXPECT_EQ(f.u.val.capacity(), f.u.val.size());
  EXPECT_EQ(f.l.nnz() + f.u.nnz(), a.nnz() + a.rows);
  f.l.validate();
  f.u.validate();
  EXPECT_TRUE(f.l.is_lower_triangular());
  EXPECT_TRUE(f.u.is_upper_triangular());
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_EQ(f.l.val[static_cast<std::size_t>(f.l.row_end(i) - 1)], 1.0);
  }
}
