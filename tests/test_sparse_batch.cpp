// Tests for the batched multi-RHS execution layer: solve_batch is bitwise
// identical to k sequential solve() calls across strategies, layouts,
// thread counts, schedules and k; a whole batch costs exactly ONE pool
// dispatch (zero serial; asserted with rt::DispatchProbe); a k == 1 batch
// allocates nothing; solve_strip and apply_strip match per-lane solves on
// row-major strips, in and out of place; and LaneOps::spmv_dot matches
// per-column spmv and dot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/precond.hpp"
#include "solve/vec.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/kernels.hpp"
#include "sparse/spmv.hpp"
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
// Counts every route into the heap this binary has (plain and aligned
// operator new — the plan's scratch uses the aligned forms). Read only
// while the pool is idle.
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
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (sz + a - 1) / a * a)) return p;
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

/// Column-major n-by-k matrix of deterministic pseudo-random values.
std::vector<double> random_columns(index_t n, index_t k, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> m(static_cast<std::size_t>(n * k));
  for (auto& v : m) v = rng.next_double(-1.0, 1.0);
  return m;
}

constexpr sp::ExecutionStrategy kStrategies[] = {
    sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross,
    sp::ExecutionStrategy::kLevelBarrier};

constexpr sp::PlanLayout kLayouts[] = {sp::PlanLayout::kPacked,
                                       sp::PlanLayout::kCsrView};

/// Per-call pool dispatches of a plan: one for a parallel strategy, none
/// for serial (it runs inline on the caller).
std::uint64_t dispatch_budget(const sp::TrisolvePlan& plan) {
  return plan.strategy() == sp::ExecutionStrategy::kSerial ? 0u : 1u;
}

}  // namespace

TEST(SolveBatch, BitwiseIdentityAcrossStrategiesLayoutsThreadsAndK) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  const index_t n = f.l.rows;

  for (sp::ExecutionStrategy strategy : kStrategies) {
    for (sp::PlanLayout layout : kLayouts) {
      for (unsigned nth : {1u, 2u, 4u}) {
        sp::PlanOptions opts;
        opts.nthreads = nth;
        opts.strategy = strategy;
        opts.layout = layout;
        sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
        const std::uint64_t budget = dispatch_budget(plan);
        for (index_t k : {1, 3, 8, 33}) {
          const auto b = random_columns(n, k, 1000 + static_cast<unsigned>(k));
          // Reference: the sequential Fig. 7 solves per column — what
          // solve() is itself bitwise equal to.
          std::vector<double> x_seq(static_cast<std::size_t>(n * k)),
              t(static_cast<std::size_t>(n));
          for (index_t c = 0; c < k; ++c) {
            sp::trisolve_lower_seq(
                f.l,
                std::span<const double>(b.data() + c * n,
                                        static_cast<std::size_t>(n)),
                t);
            sp::trisolve_upper_seq(
                f.u, t,
                std::span<double>(x_seq.data() + c * n,
                                  static_cast<std::size_t>(n)));
          }

          std::vector<double> x(static_cast<std::size_t>(n * k), 0.0);
          rt::DispatchProbe probe(pool());
          plan.solve_batch(b, x, k);
          EXPECT_EQ(probe.delta(), budget)
              << core::to_string(strategy) << " batch of " << k
              << " must cost exactly one pool dispatch (zero serial)";
          for (index_t i = 0; i < n * k; ++i) {
            ASSERT_EQ(x_seq[static_cast<std::size_t>(i)],
                      x[static_cast<std::size_t>(i)])
                << core::to_string(strategy) << " "
                << sp::to_string(layout) << " nth=" << nth << " k=" << k
                << " col " << i / n << " row " << i % n;
          }
        }
      }
    }
  }
}

TEST(SolveBatch, OneColumnBatchIsTheFusedSolveAndAllocatesNothing) {
  // k == 1 runs the fused single-RHS region over the plan's O(n) scratch:
  // bitwise equal to solve(), same dispatch budget, and not one operator
  // new — not even on the plan's first batch (no n-by-1 strip, no column
  // pointer tables).
  const sp::IluFactors f = sp::ilu0(gen::five_point(15, 17));
  const index_t n = f.l.rows;
  const auto b = random_columns(n, 1, 4242);

  for (sp::ExecutionStrategy strategy : kStrategies) {
    for (sp::PlanLayout layout : kLayouts) {
      for (unsigned nth : {1u, 2u, 4u}) {
        sp::PlanOptions opts;
        opts.nthreads = nth;
        opts.strategy = strategy;
        opts.layout = layout;
        sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
        const std::uint64_t budget = dispatch_budget(plan);
        std::vector<double> x_solve(static_cast<std::size_t>(n)),
            x_batch(static_cast<std::size_t>(n), 0.0),
            x_strip(static_cast<std::size_t>(n), 0.0);
        plan.solve(b, x_solve);

        const rt::DispatchProbe probe(pool());
        const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        plan.solve_batch(b, x_batch, 1);
        const std::uint64_t allocs =
            g_allocs.load(std::memory_order_relaxed) - a0;
        const std::uint64_t dispatches = probe.delta();

        plan.solve_strip(b, x_strip, 1);

        EXPECT_EQ(allocs, 0u) << core::to_string(strategy) << " "
                              << sp::to_string(layout) << " nth=" << nth;
        EXPECT_EQ(dispatches, budget) << core::to_string(strategy) << " "
                                      << sp::to_string(layout) << " nth=" << nth;
        EXPECT_EQ(plan.batch_columns(), 2u);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(x_solve[static_cast<std::size_t>(i)],
                    x_batch[static_cast<std::size_t>(i)])
              << core::to_string(strategy) << " " << sp::to_string(layout)
              << " nth=" << nth << " row " << i;
          ASSERT_EQ(x_solve[static_cast<std::size_t>(i)],
                    x_strip[static_cast<std::size_t>(i)])
              << "one-lane strip, row " << i;
        }
      }
    }
  }
}

namespace {

/// Lane c of a row-major n-by-k strip.
std::vector<double> lane(const std::vector<double>& strip, index_t n,
                         index_t k, index_t c) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = strip[static_cast<std::size_t>(i * k + c)];
  }
  return v;
}

}  // namespace

TEST(SolveStrip, RowMajorLanesMatchPerLaneSolvesInAndOutOfPlace) {
  const sp::IluFactors f = sp::ilu0(gen::seven_point(6, 6, 6));
  const index_t n = f.l.rows;
  for (sp::ExecutionStrategy strategy : kStrategies) {
    for (unsigned nth : {1u, 2u, 4u}) {
      sp::PlanOptions opts;
      opts.nthreads = nth;
      opts.strategy = strategy;
      sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
      for (index_t k : {2, 5, 17}) {
        // A row-major strip: lane c of row i at i*k + c.
        const auto b = random_columns(n, k, 40 + static_cast<unsigned>(k));
        std::vector<double> x(b.size(), 0.0), in_place = b;
        rt::DispatchProbe probe(pool());
        plan.solve_strip(b, x, k);
        EXPECT_EQ(probe.delta(), dispatch_budget(plan));
        plan.solve_strip(in_place, in_place, k);
        for (index_t c = 0; c < k; ++c) {
          std::vector<double> t(static_cast<std::size_t>(n)),
              z(static_cast<std::size_t>(n));
          sp::trisolve_lower_seq(f.l, lane(b, n, k, c), t);
          sp::trisolve_upper_seq(f.u, t, z);
          const auto got = lane(x, n, k, c);
          const auto got_in_place = lane(in_place, n, k, c);
          for (index_t i = 0; i < n; ++i) {
            const std::size_t ii = static_cast<std::size_t>(i);
            ASSERT_EQ(z[ii], got[ii])
                << core::to_string(strategy) << " nth=" << nth << " k=" << k
                << " lane " << c << " row " << i;
            ASSERT_EQ(z[ii], got_in_place[ii])
                << "in place, " << core::to_string(strategy) << " nth="
                << nth << " k=" << k << " lane " << c << " row " << i;
          }
        }
      }
    }
  }
}

TEST(SolveBatch, PlanReusableAcrossVaryingBatchSizes) {
  const sp::IluFactors f = sp::ilu0(gen::nine_point(12, 12));
  const index_t n = f.l.rows;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  const std::uint64_t solves0 = plan.solves();

  std::uint64_t columns = 0;
  for (index_t k : {8, 3, 33, 1}) {  // grow, shrink, grow again
    const auto b = random_columns(n, k, 500 + static_cast<unsigned>(k));
    std::vector<double> x(static_cast<std::size_t>(n * k));
    plan.solve_batch(b, x, k);
    columns += static_cast<std::uint64_t>(k);
    for (index_t c = 0; c < k; ++c) {
      std::vector<double> t(static_cast<std::size_t>(n)),
          z(static_cast<std::size_t>(n));
      sp::trisolve_lower_seq(
          f.l,
          std::span<const double>(b.data() + c * n,
                                  static_cast<std::size_t>(n)),
          t);
      sp::trisolve_upper_seq(f.u, t, z);
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(z[static_cast<std::size_t>(i)],
                  x[static_cast<std::size_t>(c * n + i)])
            << "k=" << k << " col " << c << " row " << i;
      }
    }
  }
  EXPECT_EQ(plan.solves() - solves0, 4u) << "one dispatch per batch";
  EXPECT_EQ(plan.batch_columns(), columns);
}

TEST(SolveBatch, ReserveBatchMakesSolvesAllocationFreeAndIdentical) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(10, 10));
  const index_t n = f.l.rows;
  const index_t k = 6;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  plan.reserve_batch(k);

  const auto b = random_columns(n, k, 77);
  std::vector<double> x1(static_cast<std::size_t>(n * k)),
      x2(static_cast<std::size_t>(n * k));
  plan.solve_batch(b, x1, k);
  plan.solve_batch(b, x2, k);  // epoch reuse: second batch through the
                               // same tables must agree exactly
  for (index_t i = 0; i < n * k; ++i) {
    ASSERT_EQ(x1[static_cast<std::size_t>(i)],
              x2[static_cast<std::size_t>(i)]);
  }
}

TEST(SolveBatch, GuardsRejectMisuse) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(6, 6));
  const index_t n = f.l.rows;
  std::vector<double> b(static_cast<std::size_t>(n)), x = b;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  EXPECT_THROW(plan.solve_batch(b, x, 0), std::invalid_argument);
  EXPECT_THROW(plan.solve_batch(b, x, -3), std::invalid_argument);
  EXPECT_THROW(plan.solve_batch(b, x, 2), std::invalid_argument)
      << "n-sized spans cannot hold 2 columns";
  EXPECT_THROW(plan.reserve_batch(0), std::invalid_argument);
}

TEST(SolveStrip, PreconditionerApplyStripMatchesSequentialApplications) {
  const sp::Csr a = gen::five_point(14, 14);
  // Calibration off: the one-dispatch assertion below assumes the plan
  // holds a fixed parallel strategy across every strip application.
  const solve::DoacrossIlu0Preconditioner m(
      pool(), a, sp::PlanOptions{.calibration_epochs = 0},
      sp::FactorPlanOptions{});
  const solve::Ilu0Preconditioner seq(a);
  const index_t n = a.rows;
  const index_t k = 7;

  const auto r = random_columns(n, k, 91);  // row-major strip
  std::vector<double> z(static_cast<std::size_t>(n * k), 0.0),
      z_default(z.size(), 0.0);
  rt::DispatchProbe probe(pool());
  m.apply_strip(n, r.data(), z.data(), k);
  EXPECT_EQ(probe.delta(), 1u);
  // The base-class default: lane by lane through apply().
  seq.apply_strip(n, r.data(), z_default.data(), k);
  for (index_t c = 0; c < k; ++c) {
    std::vector<double> zc(static_cast<std::size_t>(n));
    m.apply(lane(r, n, k, c), zc);
    const auto got = lane(z, n, k, c);
    const auto got_default = lane(z_default, n, k, c);
    for (index_t i = 0; i < n; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      ASSERT_EQ(zc[ii], got[ii]) << "lane " << c << " row " << i;
      ASSERT_EQ(zc[ii], got_default[ii]) << "default, lane " << c << " row "
                                         << i;
    }
  }
  EXPECT_THROW(m.apply_strip(n - 1, r.data(), z.data(), k),
               std::invalid_argument);
}

TEST(SpmvDot, MatchesPerColumnSpmvAndDot) {
  const sp::Csr a = gen::nine_point(11, 13);
  const index_t n = a.rows;
  const sp::kernels::CsrRef csr{a.ptr.data(), a.idx.data(), a.val.data(),
                                a.rows};
  for (const sp::kernels::LaneOps* ops :
       {&sp::kernels::scalar_ops(), &sp::kernels::dispatched_ops()}) {
    for (index_t k : {1, 2, 3, 4, 5, 8, 12, 17, 33}) {  // every block shape
      const auto x = random_columns(n, k, 200 + static_cast<unsigned>(k));
      std::vector<double> y(static_cast<std::size_t>(n * k), 0.0),
          dots(static_cast<std::size_t>(k));
      ops->spmv_dot(csr, x.data(), y.data(), dots.data(), k);
      for (index_t c = 0; c < k; ++c) {
        std::vector<double> want(static_cast<std::size_t>(n));
        const auto xc = lane(x, n, k, c);
        sp::spmv(a, xc, want);
        const auto got = lane(y, n, k, c);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(want[static_cast<std::size_t>(i)],
                    got[static_cast<std::size_t>(i)])
              << sp::kernels::to_string(ops->isa) << " k=" << k << " lane "
              << c << " row " << i;
        }
        ASSERT_EQ(solve::dot(xc, want), dots[static_cast<std::size_t>(c)])
            << sp::kernels::to_string(ops->isa) << " k=" << k << " lane "
            << c;
      }
    }
  }
}

