// Tests for the Krylov substrate: PCG and GMRES convergence, the
// preconditioner hierarchy, and the doacross-backed ILU application.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gen/block_operator.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/cg.hpp"
#include "solve/gmres.hpp"
#include "solve/precond.hpp"
#include "sparse/spmv.hpp"

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

std::vector<double> rhs_for_solution(const sp::Csr& a,
                                     std::vector<double>* x_true_out,
                                     std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.rows));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  sp::spmv(a, x, b);
  if (x_true_out) *x_true_out = std::move(x);
  return b;
}

double max_err(std::span<const double> got, std::span<const double> want) {
  double m = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    m = std::max(m, std::fabs(got[i] - want[i]));
  }
  return m;
}

}  // namespace

TEST(Pcg, ConvergesOnPoissonWithIdentity) {
  const sp::Csr a = gen::five_point(20, 20);
  std::vector<double> x_true;
  const auto b = rhs_for_solution(a, &x_true, 1);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep = solve::pcg(a, b, x, solve::IdentityPreconditioner{});
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(rep.final_relative_residual, 1e-9);
  EXPECT_LT(max_err(x, x_true), 1e-6);
}

TEST(Pcg, Ilu0ConvergesFasterThanJacobiAndIdentity) {
  const sp::Csr a = gen::five_point(40, 40);
  const auto b = rhs_for_solution(a, nullptr, 2);

  auto run = [&](const solve::Preconditioner& m) {
    std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
    return solve::pcg(a, b, x, m);
  };
  const auto rep_id = run(solve::IdentityPreconditioner{});
  const auto rep_jac = run(solve::JacobiPreconditioner{a});
  const auto rep_ilu = run(solve::Ilu0Preconditioner{a});

  EXPECT_TRUE(rep_id.converged);
  EXPECT_TRUE(rep_jac.converged);
  EXPECT_TRUE(rep_ilu.converged);
  // ILU(0) must cut the iteration count substantially — that is why the
  // paper's triangular solves dominate Krylov run time.
  EXPECT_LT(rep_ilu.iterations, rep_id.iterations / 2);
  EXPECT_LE(rep_ilu.iterations, rep_jac.iterations);
}

TEST(Pcg, ResidualHistoryIsRecordedAndMonotoneAtTheEnd) {
  const sp::Csr a = gen::five_point(15, 15);
  const auto b = rhs_for_solution(a, nullptr, 3);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep = solve::pcg(a, b, x, solve::Ilu0Preconditioner{a});
  ASSERT_GE(rep.residual_history.size(), 2u);
  EXPECT_LT(rep.residual_history.back(), rep.residual_history.front());
}

TEST(Pcg, ZeroRhsReturnsImmediately) {
  const sp::Csr a = gen::five_point(8, 8);
  std::vector<double> b(static_cast<std::size_t>(a.rows), 0.0);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep = solve::pcg(a, b, x, solve::IdentityPreconditioner{});
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 0);
}

TEST(Gmres, ConvergesOnNonsymmetricBlockOperator) {
  const sp::Csr a = gen::block_seven_point(
      {.nx = 4, .ny = 4, .nz = 2, .block = 3, .seed = 4});
  std::vector<double> x_true;
  const auto b = rhs_for_solution(a, &x_true, 5);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep =
      solve::gmres(a, b, x, solve::Ilu0Preconditioner{a}, {.restart = 20});
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(max_err(x, x_true), 1e-6);
}

TEST(Gmres, Ilu0BeatsIdentityOnIterationCount) {
  const sp::Csr a = gen::matrix_spe5(6);
  const auto b = rhs_for_solution(a, nullptr, 7);

  std::vector<double> x1(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_id = solve::gmres(a, b, x1, solve::IdentityPreconditioner{},
                                   {.restart = 30, .max_iterations = 500});
  std::vector<double> x2(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_ilu = solve::gmres(a, b, x2, solve::Ilu0Preconditioner{a},
                                    {.restart = 30, .max_iterations = 500});
  EXPECT_TRUE(rep_ilu.converged);
  EXPECT_LT(rep_ilu.iterations, rep_id.iterations);
}

TEST(Gmres, RestartOneStillConverges) {
  // GMRES(1) degenerates gracefully on an SPD matrix.
  const sp::Csr a = gen::five_point(10, 10);
  const auto b = rhs_for_solution(a, nullptr, 8);
  std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep = solve::gmres(a, b, x, solve::Ilu0Preconditioner{a},
                                {.restart = 1, .max_iterations = 2000});
  EXPECT_TRUE(rep.converged);
}

TEST(Preconditioners, DoacrossIluMatchesSequentialIluApplication) {
  const sp::Csr a = gen::matrix_spe2(9);
  const solve::Ilu0Preconditioner seq(a);
  // The pinned flag-based executor and the default Auto plan.
  const solve::DoacrossIlu0Preconditioner par(
      pool(), a,
      pdx::sparse::PlanOptions{
          .strategy = pdx::sparse::ExecutionStrategy::kDoacross});
  const solve::DoacrossIlu0Preconditioner par_auto(pool(), a);

  gen::SplitMix64 rng(10);
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  for (auto& v : r) v = rng.next_double(-1.0, 1.0);

  std::vector<double> z_seq(r.size()), z_par(r.size()), z_auto(r.size());
  seq.apply(r, z_seq);
  par.apply(r, z_par);
  par_auto.apply(r, z_auto);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(z_seq[i], z_par[i]) << i;
    ASSERT_EQ(z_seq[i], z_auto[i]) << i;
  }
}

TEST(Preconditioners, DoacrossIluInsidePcgConverges) {
  const sp::Csr a = gen::five_point(30, 30);
  const auto b = rhs_for_solution(a, nullptr, 11);

  std::vector<double> x_seq(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_seq = solve::pcg(a, b, x_seq, solve::Ilu0Preconditioner{a});
  std::vector<double> x_par(static_cast<std::size_t>(a.rows), 0.0);
  const auto rep_par = solve::pcg(
      a, b, x_par, solve::DoacrossIlu0Preconditioner{pool(), a});

  EXPECT_TRUE(rep_seq.converged);
  EXPECT_TRUE(rep_par.converged);
  // The doacross application is bitwise equal, so the iteration paths
  // coincide exactly.
  EXPECT_EQ(rep_seq.iterations, rep_par.iterations);
  EXPECT_LT(max_err(x_par, x_seq), 1e-12);
}

TEST(Preconditioners, JacobiRejectsZeroDiagonal) {
  sp::CsrBuilder bld(2, 2);
  bld.add(0, 0, 0.0);
  bld.add(1, 1, 1.0);
  const sp::Csr a = bld.build();
  EXPECT_THROW(solve::JacobiPreconditioner{a}, std::invalid_argument);
}

TEST(SolveGuards, MismatchedSizesThrow) {
  const sp::Csr a = gen::five_point(4, 4);
  std::vector<double> small(3), x(static_cast<std::size_t>(a.rows));
  EXPECT_THROW(solve::pcg(a, small, x, solve::IdentityPreconditioner{}),
               std::invalid_argument);
  EXPECT_THROW(solve::gmres(a, small, x, solve::IdentityPreconditioner{}),
               std::invalid_argument);
}

TEST(SolveGuards, LockstepRejectsBadSystemsBeforeTouchingAny) {
  const sp::Csr a = gen::five_point(4, 4);
  const std::size_t n = static_cast<std::size_t>(a.rows);
  const auto b = rhs_for_solution(a, nullptr, 12);
  const std::vector<double> r = b;  // the residual of a zero guess
  const solve::IdentityPreconditioner m;
  solve::CgScratch scratch;

  // A healthy first system: neither its x nor its report may change when
  // a later system is rejected.
  std::vector<double> x0(n, 0.0);
  solve::SolveReport rep0;
  rep0.iterations = -7;
  std::vector<double> x1(n, 0.0), short_x(n - 1, 0.0);
  const std::vector<double> short_b(n - 1, 1.0);
  solve::SolveReport rep1;

  const solve::CgSystem good{b, x0, r.data(), &rep0};
  const std::vector<solve::CgSystem> bad = {
      {b, short_x, r.data(), &rep1},  // x shorter than a.rows
      {short_b, x1, r.data(), &rep1},  // b shorter than a.rows
      {b, x1, nullptr, &rep1},         // null residual
      {b, x1, r.data(), nullptr},      // null report
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::vector<solve::CgSystem> systems = {good, bad[i]};
    EXPECT_THROW(solve::pcg_lockstep(a, systems, m, {}, scratch),
                 std::invalid_argument)
        << "case " << i;
    EXPECT_EQ(rep0.iterations, -7) << "case " << i;
    for (double v : x0) ASSERT_EQ(v, 0.0) << "case " << i;
  }

  sp::CsrBuilder wide(2, 3);
  wide.add(0, 0, 1.0);
  wide.add(1, 1, 1.0);
  const sp::Csr non_square = wide.build();
  EXPECT_THROW(solve::pcg_lockstep(non_square, {&good, 1}, m, {}, scratch),
               std::invalid_argument);
  EXPECT_EQ(rep0.iterations, -7);
}
