// Tests for TrisolvePlan: repeated solves across epochs stay bitwise
// identical to the sequential Fig. 7 loops under every strategy, layout
// and thread count, the fused L+U application costs exactly one pool
// fork/join, and the O(1) epoch reset really replaces the flag sweep.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "sparse/ilu0.hpp"
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

std::vector<double> random_rhs(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);
  return rhs;
}

/// z = U⁻¹ L⁻¹ rhs through the sequential Fig. 7 loops.
std::vector<double> seq_solve(const sp::IluFactors& f,
                              std::span<const double> rhs) {
  std::vector<double> t(rhs.size()), z(rhs.size());
  sp::trisolve_lower_seq(f.l, rhs, t);
  sp::trisolve_upper_seq(f.u, t, z);
  return z;
}

constexpr sp::ExecutionStrategy kPinned[] = {
    sp::ExecutionStrategy::kDoacross, sp::ExecutionStrategy::kLevelBarrier,
    sp::ExecutionStrategy::kSerial};

}  // namespace

TEST(TrisolvePlan, RepeatedSolvesBitwiseAcrossEpochs) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(18, 18));
  const index_t n = f.l.rows;

  // Thread counts {1, 2, hardware-width pool}; both layouts. Every
  // combination must stay bitwise equal to the sequential solves on
  // every reuse epoch.
  for (unsigned nth : {1u, 2u, 0u}) {
    for (sp::PlanLayout layout :
         {sp::PlanLayout::kCsrView, sp::PlanLayout::kPacked}) {
      sp::PlanOptions opts;
      opts.nthreads = nth;
      opts.layout = layout;
      sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
      for (int epoch = 0; epoch < 4; ++epoch) {
        const auto rhs = random_rhs(n, 100 + epoch);
        const std::vector<double> z_seq = seq_solve(f, rhs);
        std::vector<double> z(static_cast<std::size_t>(n));
        plan.solve(rhs, z);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
                    z[static_cast<std::size_t>(i)])
              << "nth=" << nth << " " << sp::to_string(layout) << " epoch "
              << epoch << " row " << i;
        }
      }
    }
  }
}

TEST(TrisolvePlan, FusedSolveBitwiseAcrossEpochs) {
  const sp::IluFactors f = sp::ilu0(gen::seven_point(7, 7, 7));

  for (unsigned nth : {1u, 2u, 0u}) {
    for (sp::ExecutionStrategy s : kPinned) {
      sp::PlanOptions opts;
      opts.nthreads = nth;
      opts.strategy = s;
      sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
      for (int epoch = 0; epoch < 4; ++epoch) {
        const auto rhs = random_rhs(f.l.rows, 200 + epoch);
        const std::vector<double> z_seq = seq_solve(f, rhs);
        std::vector<double> z(static_cast<std::size_t>(f.l.rows));
        plan.solve(rhs, z);
        for (index_t i = 0; i < f.l.rows; ++i) {
          ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
                    z[static_cast<std::size_t>(i)])
              << "nth=" << nth << " " << pdx::core::to_string(s)
              << " epoch " << epoch << " row " << i;
        }
      }
    }
  }
}

TEST(TrisolvePlan, StripSolveBitwiseAcrossEpochs) {
  // Every lane of a strip solved in place equals the sequential solves on
  // that lane, epoch after epoch.
  const sp::IluFactors f = sp::ilu0(gen::nine_point(14, 14));
  const index_t n = f.l.rows;
  const index_t k = 3;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<double> x = random_rhs(n * k, 300 + epoch);
    std::vector<std::vector<double>> z_seq;
    for (index_t c = 0; c < k; ++c) {
      std::vector<double> col(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        col[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(i * k + c)];
      }
      z_seq.push_back(seq_solve(f, col));
    }
    plan.solve_strip(x, x, k);
    for (index_t c = 0; c < k; ++c) {
      const std::vector<double>& want = z_seq[static_cast<std::size_t>(c)];
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[static_cast<std::size_t>(i)],
                  x[static_cast<std::size_t>(i * k + c)])
            << "epoch " << epoch << " lane " << c << " row " << i;
      }
    }
  }
}

TEST(TrisolvePlan, FusedApplicationCostsExactlyOneDispatch) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(12, 12));
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  const auto rhs = random_rhs(f.l.rows, 42);
  std::vector<double> z(static_cast<std::size_t>(f.l.rows));

  const std::uint64_t before = pool().dispatch_count();
  plan.solve(rhs, z);
  EXPECT_EQ(pool().dispatch_count() - before, 1u)
      << "fused L+U must be one pool fork/join";

  // Ten more applications: still one dispatch each.
  const std::uint64_t before10 = pool().dispatch_count();
  for (int rep = 0; rep < 10; ++rep) plan.solve(rhs, z);
  EXPECT_EQ(pool().dispatch_count() - before10, 10u);
}

TEST(TrisolvePlan, PreconditionerApplyCostsExactlyOneDispatch) {
  const sp::Csr a = gen::five_point(12, 12);
  const solve::DoacrossIlu0Preconditioner m(pool(), a);
  const auto r = random_rhs(a.rows, 43);
  std::vector<double> z(static_cast<std::size_t>(a.rows));

  const std::uint64_t before = pool().dispatch_count();
  m.apply(r, z);
  EXPECT_EQ(pool().dispatch_count() - before, 1u);
}

TEST(TrisolvePlan, EpochResetIsCounterBumpNotSweep) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(10, 10));
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  const auto rhs = random_rhs(f.l.rows, 44);
  std::vector<double> z(static_cast<std::size_t>(f.l.rows));

  const std::uint32_t e0 = plan.lower_epoch();
  for (int rep = 0; rep < 3; ++rep) plan.solve(rhs, z);
  EXPECT_EQ(plan.lower_epoch(), e0 + 3) << "one epoch bump per solve";
  EXPECT_EQ(plan.solves(), 3u);
}

TEST(TrisolvePlan, PlanInsidePcgMatchesSequentialPath) {
  // The preconditioner holds the plan across all Krylov iterations; the
  // iteration path must coincide exactly with the sequential ILU(0).
  const sp::Csr a = gen::five_point(25, 25);
  gen::SplitMix64 rng(45);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);

  std::vector<double> x_seq(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_seq = solve::pcg(a, b, x_seq, solve::Ilu0Preconditioner{a});
  std::vector<double> x_par(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_par =
      solve::pcg(a, b, x_par, solve::DoacrossIlu0Preconditioner{pool(), a});

  EXPECT_TRUE(rep_seq.converged);
  EXPECT_TRUE(rep_par.converged);
  EXPECT_EQ(rep_seq.iterations, rep_par.iterations);
  for (std::size_t i = 0; i < x_seq.size(); ++i) {
    ASSERT_EQ(x_seq[i], x_par[i]) << i;
  }
}

TEST(TrisolvePlan, RejectsBadArguments) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(6, 6));
  const sp::IluFactors g = sp::ilu0(gen::five_point(5, 6));
  EXPECT_THROW(sp::TrisolvePlan(pool(), f.l, g.u, {}), std::invalid_argument)
      << "L/U dimension mismatch";

  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  std::vector<double> rhs(static_cast<std::size_t>(f.l.rows)), z = rhs;
  std::vector<double> small(3);
  EXPECT_THROW(plan.solve(small, z), std::invalid_argument);
  EXPECT_THROW(plan.solve(rhs, small), std::invalid_argument);
  EXPECT_THROW(plan.solve_strip(rhs, small, 1), std::invalid_argument);
}
