// Fault-injection matrix for the containment layer (DESIGN.md §12): under
// every executor strategy, thread count, and factor layout, an injected
// worker exception or stalled producer must terminate the solve with the
// right exception (no hang), poison the plan, leave the shared ThreadPool
// reusable, and let BatchDriver keep serving through the sequential
// fallback. Also covers pivot recovery policies, Krylov breakdown
// reporting, the retry ladder, and input-validation messages.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "solve/vec.hpp"
#include "sparse/csr.hpp"
#include "sparse/factor_plan.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/levels.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

/// Tridiagonal SPD matrix: every row depends on the previous one, so a
/// fault or stall at any interior row is guaranteed to have downstream
/// waiters under every parallel strategy.
sp::Csr tridiag(index_t n) {
  sp::CsrBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) b.add(i, i - 1, -1.0);
    b.add(i, i, 4.0);
    if (i < n - 1) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

/// Dense 2x2 whose exact elimination produces u22 = 4 - 2*2 = 0: the
/// canonical natural zero pivot for the recovery-policy tests.
sp::Csr zero_pivot_2x2() {
  sp::CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 4.0);
  return b.build();
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

void expect_pool_reusable() {
  std::atomic<int> hits{0};
  pool().parallel_region(4, [&](unsigned, unsigned) {
    hits.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(hits.load(), 4);
}

constexpr sp::ExecutionStrategy kAllStrategies[] = {
    sp::ExecutionStrategy::kDoacross, sp::ExecutionStrategy::kLevelBarrier,
    sp::ExecutionStrategy::kSerial};

constexpr sp::ExecutionStrategy kParallelStrategies[] = {
    sp::ExecutionStrategy::kDoacross, sp::ExecutionStrategy::kLevelBarrier};

constexpr sp::PlanLayout kLayouts[] = {sp::PlanLayout::kPacked,
                                       sp::PlanLayout::kCsrView};

}  // namespace

TEST(FaultInjection, InjectedThrowTerminatesEveryExecutor) {
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  const sp::IluFactors f = sp::ilu0(a);
  const auto rhs = random_vec(n, 1);
  std::vector<double> x(static_cast<std::size_t>(n));

  for (sp::ExecutionStrategy strategy : kAllStrategies) {
    for (unsigned nth : {2u, 4u}) {
      for (sp::PlanLayout layout : kLayouts) {
        SCOPED_TRACE(std::string(pdx::core::to_string(strategy)) + " nth=" +
                     std::to_string(nth) +
                     (layout == sp::PlanLayout::kPacked ? " packed"
                                                        : " csr-view"));
        sp::PlanOptions opts;
        opts.strategy = strategy;
        opts.nthreads = nth;
        opts.layout = layout;
        sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
        rt::FaultInjector inj;
        plan.set_fault_injector(&inj);

        // A healthy solve first: the harness must be zero-impact disarmed.
        plan.solve(rhs, x);
        std::vector<double> x_seq(static_cast<std::size_t>(n)),
            t_seq(static_cast<std::size_t>(n));
        sp::trisolve_lower_seq(f.l, rhs, t_seq);
        sp::trisolve_upper_seq(f.u, t_seq, x_seq);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(x[static_cast<std::size_t>(i)],
                    x_seq[static_cast<std::size_t>(i)]);
        }

        inj.arm_throw(rt::FaultInjector::kAnyTid, n / 2);
        EXPECT_THROW(plan.solve(rhs, x), rt::InjectedFault);
        EXPECT_EQ(inj.faults_fired(), 1);
        EXPECT_TRUE(plan.poisoned());
        EXPECT_THROW(plan.solve(rhs, x), rt::PlanPoisonedError);
        EXPECT_THROW(plan.refresh_values(f), rt::PlanPoisonedError);
        expect_pool_reusable();
      }
    }
  }
}

TEST(FaultInjection, StalledProducerTripsWatchdogEveryParallelExecutor) {
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  const sp::IluFactors f = sp::ilu0(a);
  const auto rhs = random_vec(n, 2);
  std::vector<double> x(static_cast<std::size_t>(n));

  for (sp::ExecutionStrategy strategy : kParallelStrategies) {
    for (sp::PlanLayout layout : kLayouts) {
      SCOPED_TRACE(std::string(pdx::core::to_string(strategy)) +
                   (layout == sp::PlanLayout::kPacked ? " packed"
                                                      : " csr-view"));
      sp::PlanOptions opts;
      opts.strategy = strategy;
      opts.nthreads = 2;
      opts.layout = layout;
      opts.stall_budget = 8000;  // well past any healthy wait
      sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
      rt::FaultInjector inj;
      plan.set_fault_injector(&inj);
      // Row n/2-1 stalls mid-solve; the safety valve is far beyond the
      // watchdog budget, so the watchdog fires first and the latch (not
      // the valve) wakes the stalled producer.
      // "Far beyond" is measured in wall time, not rounds: on a loaded
      // one-core CI box each post-pause watchdog round is a yield that
      // can burn a scheduling quantum, so the budget's worst-case burn
      // runs to tens of seconds and the valve must stay well clear of it.
      inj.arm_stall(rt::FaultInjector::kAnyTid, n / 2 - 1,
                    /*max_stall_ms=*/240000);
      try {
        plan.solve(rhs, x);
        FAIL() << "expected rt::StallError";
      } catch (const rt::StallError& e) {
        EXPECT_GE(e.rounds(), opts.stall_budget);
      }
      EXPECT_EQ(inj.stalls_fired(), 1);
      EXPECT_TRUE(plan.poisoned());
      EXPECT_THROW(plan.solve(rhs, x), rt::PlanPoisonedError);
      expect_pool_reusable();
    }
  }
}

TEST(FaultInjection, SerialStallResumesThroughSafetyValve) {
  // A stalled serial executor has no peers and no watchdog waiter; the
  // injector's max_stall_ms valve must let it resume and finish with the
  // right answer instead of wedging the test run.
  const index_t n = 100;
  const sp::Csr a = tridiag(n);
  const sp::IluFactors f = sp::ilu0(a);
  const auto rhs = random_vec(n, 3);
  std::vector<double> x(static_cast<std::size_t>(n));

  sp::PlanOptions opts;
  opts.strategy = sp::ExecutionStrategy::kSerial;
  sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
  rt::FaultInjector inj;
  plan.set_fault_injector(&inj);
  inj.arm_stall(rt::FaultInjector::kAnyTid, n / 2, /*max_stall_ms=*/50);
  plan.solve(rhs, x);
  EXPECT_EQ(inj.stalls_fired(), 1);
  EXPECT_FALSE(plan.poisoned());

  std::vector<double> x_seq(static_cast<std::size_t>(n)),
      t_seq(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(f.l, rhs, t_seq);
  sp::trisolve_upper_seq(f.u, t_seq, x_seq);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(x[static_cast<std::size_t>(i)],
              x_seq[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultInjection, SerialWalkNamesTheRowItRunsUnderEitherOrder) {
  // The injector fires before the row the walk is about to compute, in
  // source order and in the wavefront walk alike: every row the walk
  // visited earlier is final, the targeted row is untouched. The target
  // is the 12x12 grid's row (0, 11) — level 11, so the level order
  // reaches it at position 66..77, long before position 132. A verdict
  // stored in the tuning cache pins each plan's order, and a walk inside
  // a pool region (a lane group's) follows it too. Then the same fault
  // under a preconditioner: the plan poisons and the answer is still
  // bitwise, served by the sequential fallback.
  const index_t nx = 12, target = nx * (nx - 1);
  const sp::Csr a = gen::five_point(nx, nx);
  const sp::IluFactors f = sp::ilu0(a);
  const index_t n = a.rows;
  const std::size_t nn = static_cast<std::size_t>(n);
  const auto rhs = random_vec(n, 11);
  std::vector<double> y_seq(nn), z_seq(nn);
  sp::trisolve_lower_seq(f.l, rhs, y_seq);
  sp::trisolve_upper_seq(f.u, y_seq, z_seq);
  const pdx::core::TuningKey key =
      pdx::core::make_tuning_key(sp::measure_lower_solve(f.l), 1, false);

  sp::PlanOptions opts;
  opts.strategy = sp::ExecutionStrategy::kSerial;
  opts.nthreads = 1;
  struct Case {
    const char* name;
    pdx::core::WalkOrder verdict;
    bool in_region;
  };
  for (const Case& c :
       {Case{"source", pdx::core::WalkOrder::kSource, false},
        Case{"wavefront", pdx::core::WalkOrder::kWavefront, false},
        Case{"wavefront in a region", pdx::core::WalkOrder::kWavefront,
             true}}) {
    SCOPED_TRACE(c.name);
    pdx::core::tuning_cache().clear();
    pdx::core::tuning_cache().store(key, c.verdict);
    sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
    ASSERT_TRUE(plan.telemetry().order_race.cache_hit);
    ASSERT_EQ(plan.telemetry().order, c.verdict);
    rt::FaultInjector inj;
    plan.set_fault_injector(&inj);
    std::vector<double> y(nn, std::nan(""));
    inj.arm_throw(rt::FaultInjector::kAnyTid, target);
    // A one-lane strip solves in place in y, so the forward rows the
    // walk finished before the target stay visible there.
    const auto faulting_solve = [&] {
      EXPECT_THROW(plan.solve_strip(rhs, y, 1), rt::InjectedFault);
    };
    if (c.in_region) {
      pool().parallel_region(1, [&](unsigned, unsigned) { faulting_solve(); });
    } else {
      faulting_solve();
    }
    EXPECT_TRUE(plan.poisoned());
    EXPECT_TRUE(std::isnan(y[static_cast<std::size_t>(target)]));
    const bool wave = c.verdict == pdx::core::WalkOrder::kWavefront;
    for (index_t pos = 0;; ++pos) {
      const index_t row =
          wave ? plan.lower_reordering()->order[static_cast<std::size_t>(pos)]
               : pos;
      if (row == target) break;
      ASSERT_EQ(y[static_cast<std::size_t>(row)],
                y_seq[static_cast<std::size_t>(row)])
          << "row " << row << " ran before the target";
    }

    solve::DoacrossIlu0Preconditioner m(pool(), a, opts,
                                        sp::FactorPlanOptions{.nthreads = 1});
    ASSERT_EQ(m.plan().telemetry().order, c.verdict);
    m.set_fault_injector(&inj);
    inj.arm_throw(rt::FaultInjector::kAnyTid, target);
    std::vector<double> z(nn);
    m.apply(rhs, z);
    EXPECT_TRUE(m.degraded());
    EXPECT_EQ(m.serial_fallbacks(), 1u);
    EXPECT_EQ(z, z_seq);
  }
  pdx::core::tuning_cache().clear();
}

TEST(FaultInjection, FactorPlanInjectedThrowPoisonsAndPoolSurvives) {
  const index_t n = 400;
  const sp::Csr a = tridiag(n);

  for (sp::ExecutionStrategy strategy : kParallelStrategies) {
    SCOPED_TRACE(pdx::core::to_string(strategy));
    sp::FactorPlanOptions opts;
    opts.strategy = strategy;
    opts.nthreads = 4;
    sp::FactorPlan fp(pool(), a, opts);
    sp::IluFactors f = fp.allocate_factors();
    rt::FaultInjector inj;
    fp.set_fault_injector(&inj);

    inj.arm_throw(rt::FaultInjector::kAnyTid, n / 2);
    EXPECT_THROW(fp.factorize(a, f), rt::InjectedFault);
    EXPECT_TRUE(fp.poisoned());
    EXPECT_THROW(fp.factorize(a, f), rt::PlanPoisonedError);
    expect_pool_reusable();
  }
}

TEST(FaultInjection, CorruptedPivotUnderThrowNamesRowAndRecovers) {
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  const sp::IluFactors ref = sp::ilu0(a);

  sp::FactorPlanOptions opts;
  opts.strategy = sp::ExecutionStrategy::kDoacross;
  opts.nthreads = 4;
  sp::FactorPlan fp(pool(), a, opts);
  sp::IluFactors f = fp.allocate_factors();
  rt::FaultInjector inj;
  fp.set_fault_injector(&inj);

  inj.arm_pivot_corruption(n / 2);
  try {
    fp.factorize(a, f);
    FAIL() << "expected a zero-pivot error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row " + std::to_string(n / 2)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(inj.pivots_corrupted(), 1);
  // A pivot throw does NOT poison: the corruption is one-shot, so a
  // refactorize rewrites every value and fully recovers the factors.
  EXPECT_FALSE(fp.poisoned());
  fp.factorize(a, f);
  for (std::size_t k = 0; k < ref.u.val.size(); ++k) {
    ASSERT_EQ(f.u.val[k], ref.u.val[k]);
  }
  for (std::size_t k = 0; k < ref.l.val.size(); ++k) {
    ASSERT_EQ(f.l.val[k], ref.l.val[k]);
  }
}

TEST(FaultInjection, ShiftPolicyRecoversNaturalZeroPivotBitwise) {
  const sp::Csr a = zero_pivot_2x2();
  // The sequential reference throws by default and recovers under kShift.
  try {
    sp::ilu0(a);
    FAIL() << "expected a zero-pivot error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }
  sp::PivotOptions po;
  po.policy = sp::PivotPolicy::kShift;
  sp::PivotOutcome out;
  const sp::IluFactors ref = sp::ilu0(a, po, &out);
  EXPECT_EQ(out.shifted_pivots, 1u);
  EXPECT_EQ(out.shift_value, po.initial_shift);
  EXPECT_EQ(out.passes, 1);
  for (const double v : ref.u.val) EXPECT_TRUE(std::isfinite(v));

  // Every FactorPlan strategy must reproduce the shifted factors bitwise.
  for (sp::ExecutionStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(pdx::core::to_string(strategy));
    sp::FactorPlanOptions opts;
    opts.strategy = strategy;
    opts.nthreads = 2;
    opts.pivot = po;
    sp::FactorPlan fp(pool(), a, opts);
    sp::IluFactors f = fp.allocate_factors();
    const sp::FactorStats st = fp.factorize(a, f);
    EXPECT_EQ(st.pivot_shifts, 1u);
    EXPECT_EQ(st.pivot_shift, po.initial_shift);
    EXPECT_EQ(st.shift_passes, 1);
    EXPECT_EQ(fp.telemetry().total_pivot_shifts, 1u);
    for (std::size_t k = 0; k < ref.u.val.size(); ++k) {
      ASSERT_EQ(f.u.val[k], ref.u.val[k]) << "u pos " << k;
    }
    for (std::size_t k = 0; k < ref.l.val.size(); ++k) {
      ASSERT_EQ(f.l.val[k], ref.l.val[k]) << "l pos " << k;
    }
  }
}

TEST(FaultInjection, ReplacePolicySubstitutesFixedPivot) {
  const sp::Csr a = zero_pivot_2x2();
  sp::PivotOptions po;
  po.policy = sp::PivotPolicy::kReplace;
  po.replacement = 1.0;
  sp::PivotOutcome out;
  const sp::IluFactors ref = sp::ilu0(a, po, &out);
  EXPECT_EQ(out.shifted_pivots, 1u);
  // U row 1 stores its diagonal first: the replaced pivot.
  EXPECT_EQ(ref.u.val[static_cast<std::size_t>(ref.u.row_begin(1))], 1.0);

  sp::FactorPlanOptions opts;
  opts.pivot = po;
  opts.strategy = sp::ExecutionStrategy::kSerial;
  sp::FactorPlan fp(pool(), a, opts);
  sp::IluFactors f = fp.allocate_factors();
  const sp::FactorStats st = fp.factorize(a, f);
  EXPECT_EQ(st.pivot_shifts, 1u);
  EXPECT_EQ(f.u.val[static_cast<std::size_t>(f.u.row_begin(1))], 1.0);
}

TEST(FaultInjection, CorruptedPivotUnderShiftRecoversInjected) {
  // Injected corruption plus kShift: the factorization self-heals in one
  // pass and produces finite factors.
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  sp::FactorPlanOptions opts;
  opts.strategy = sp::ExecutionStrategy::kDoacross;
  opts.nthreads = 4;
  opts.pivot.policy = sp::PivotPolicy::kShift;
  sp::FactorPlan fp(pool(), a, opts);
  sp::IluFactors f = fp.allocate_factors();
  rt::FaultInjector inj;
  fp.set_fault_injector(&inj);
  inj.arm_pivot_corruption(n / 2);
  const sp::FactorStats st = fp.factorize(a, f);
  EXPECT_EQ(inj.pivots_corrupted(), 1);
  EXPECT_GE(st.pivot_shifts, 1u);
  for (const double v : f.u.val) ASSERT_TRUE(std::isfinite(v));
  for (const double v : f.l.val) ASSERT_TRUE(std::isfinite(v));
}

TEST(FaultInjection, BatchDriverDegradesToSerialAndKeepsServing) {
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  solve::BatchDriverOptions o;
  o.method = solve::KrylovMethod::kCg;
  solve::BatchDriver drv(pool(), a, o);
  rt::FaultInjector inj;
  drv.set_fault_injector(&inj);

  std::vector<std::vector<double>> bs, xs;
  for (int j = 0; j < 3; ++j) {
    bs.push_back(random_vec(n, 10 + static_cast<std::uint64_t>(j)));
    xs.emplace_back(static_cast<std::size_t>(n), 0.0);
  }
  for (int j = 0; j < 3; ++j) drv.enqueue(bs[j], xs[j]);

  // The first preconditioner application faults and poisons the parallel
  // plan; the drain must still complete every job correctly through the
  // sequential fallback.
  inj.arm_throw(rt::FaultInjector::kAnyTid, n / 2);
  const solve::BatchReport rep = drv.drain();
  EXPECT_EQ(rep.jobs, 3u);
  EXPECT_EQ(rep.converged, 3u);
  EXPECT_TRUE(rep.degraded_serial);
  EXPECT_GE(drv.preconditioner().serial_fallbacks(), 1u);
  EXPECT_TRUE(drv.preconditioner().degraded());

  // And the driver keeps serving new traffic after the fault.
  auto b2 = random_vec(n, 99);
  std::vector<double> x2(static_cast<std::size_t>(n), 0.0);
  drv.enqueue(b2, x2);
  const solve::BatchReport rep2 = drv.drain();
  EXPECT_EQ(rep2.converged, 1u);
  EXPECT_TRUE(rep2.degraded_serial);
}

TEST(FaultInjection, KrylovBreakdownIsReportedNotSilent) {
  // diag(1, -1): with the exact (ILU0 = LU) preconditioner, CG's very
  // first p·Ap is zero — historically a silent break, now a named one.
  sp::CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -1.0);
  const sp::Csr a = b.build();
  const std::vector<double> rhs = {1.0, 1.0};
  std::vector<double> x(2, 0.0);
  const solve::IdentityPreconditioner ident;
  solve::CgOptions co;
  co.max_iterations = 10;
  const solve::SolveReport cg_rep = solve::pcg(a, rhs, x, ident, co);
  EXPECT_FALSE(cg_rep.converged);
  EXPECT_TRUE(cg_rep.breakdown);
  EXPECT_NE(cg_rep.breakdown_reason.find("denominator"), std::string::npos);

  // BiCGSTAB: a NaN rhs drives rho non-finite on the first iteration.
  const std::vector<double> bad_rhs = {std::nan(""), 1.0};
  std::vector<double> x2(2, 0.0);
  solve::BicgstabOptions bo;
  bo.max_iterations = 10;
  const solve::SolveReport bi_rep =
      solve::bicgstab(a, bad_rhs, x2, ident, bo);
  EXPECT_TRUE(bi_rep.breakdown);
  EXPECT_NE(bi_rep.breakdown_reason.find("rho"), std::string::npos);

  // Forwarded through the driver: the drain counts it and the per-job
  // report carries the reason.
  solve::BatchDriverOptions o;
  o.method = solve::KrylovMethod::kCg;
  o.max_iterations = 10;
  solve::BatchDriver drv(pool(), a, o);
  std::vector<double> x3(2, 0.0);
  drv.enqueue(rhs, x3);
  const solve::BatchReport rep = drv.drain();
  EXPECT_EQ(rep.breakdowns, 1u);
  ASSERT_EQ(rep.reports.size(), 1u);
  EXPECT_TRUE(rep.reports[0].breakdown);
  EXPECT_FALSE(rep.reports[0].breakdown_reason.empty());
}

TEST(FaultInjection, RetryLadderWidensBudgetAndReportsAttempts) {
  // ILU(0) of a 2-D five-point stencil is genuinely incomplete, so CG
  // needs a handful of iterations: a 2-iteration first attempt fails and
  // the widened second attempt (2 * 50) converges.
  const sp::Csr a = gen::five_point(20, 20);
  solve::BatchDriverOptions o;
  o.method = solve::KrylovMethod::kCg;
  o.max_iterations = 2;
  o.max_attempts = 3;
  o.retry_iteration_factor = 50;
  solve::BatchDriver drv(pool(), a, o);
  const auto b = random_vec(a.rows, 7);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  drv.enqueue(b, x);
  const solve::BatchReport rep = drv.drain();
  EXPECT_EQ(rep.converged, 1u);
  EXPECT_EQ(rep.retried, 1u);
  ASSERT_EQ(rep.reports.size(), 1u);
  EXPECT_EQ(rep.reports[0].attempts, 2);
  EXPECT_TRUE(rep.reports[0].converged);
}

TEST(FaultInjection, ValidationNamesOffendingJobRowAndSizes) {
  const index_t n = 16;
  const sp::Csr a = tridiag(n);
  solve::BatchDriverOptions o;
  o.screen_nonfinite = true;
  solve::BatchDriver drv(pool(), a, o);

  // Short b: the message names the job and both sizes.
  std::vector<double> short_b(static_cast<std::size_t>(n - 1), 1.0);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  try {
    drv.enqueue(short_b, x);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("job 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(n - 1)), std::string::npos) << msg;
  }

  // Non-finite rhs entry: the opt-in screen names job and row.
  std::vector<double> bad_b(static_cast<std::size_t>(n), 1.0);
  bad_b[3] = std::nan("");
  try {
    drv.enqueue(bad_b, x);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("job 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("row 3"), std::string::npos) << msg;
  }

  // solve_batch size mismatch: the message carries the actual numbers.
  const sp::IluFactors f = sp::ilu0(a);
  sp::TrisolvePlan plan(pool(), f.l, f.u, sp::PlanOptions{});
  std::vector<double> small(static_cast<std::size_t>(n), 0.0);
  std::vector<double> out(static_cast<std::size_t>(2 * n), 0.0);
  try {
    plan.solve_batch(small, out, /*k=*/2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("size mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(2 * n)), std::string::npos) << msg;
  }
}
