// Tests for solve::BatchDriver: a queue of mixed easy / ill-conditioned
// systems drains through the shared DoacrossIlu0Preconditioner plan, every
// solution meets the same residual tolerance as the single-solve path, and
// the results are bitwise identical to running each system alone — the
// lockstep CG drain column by column against pcg, and the retry ladder
// against the per-job ladder. Also covers the batched admission screen,
// queue reuse, a kAuto strategy race run inside a wide first strip, and
// lane groups: a settled serial plan's drain split across the pool, its
// answers and its fault containment.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "gen/block_operator.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/failure.hpp"
#include "runtime/schedule.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/bicgstab.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "solve/vec.hpp"
#include "sparse/csr.hpp"
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

/// Anisotropic 2-D operator: strong coupling along x, eps-weak along y.
/// SPD (boundary rows strictly dominant) but ill-conditioned for small
/// eps — the hard half of the mixed queue.
sp::Csr anisotropic_five_point(index_t nx, index_t ny, double eps) {
  sp::CsrBuilder b(nx * ny, nx * ny);
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx; ++ix) {
      const index_t i = iy * nx + ix;
      b.add(i, i, 2.0 + 2.0 * eps);
      if (ix > 0) b.add(i, i - 1, -1.0);
      if (ix < nx - 1) b.add(i, i + 1, -1.0);
      if (iy > 0) b.add(i, i - nx, -eps);
      if (iy < ny - 1) b.add(i, i + nx, -eps);
    }
  }
  return b.build();
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

double relative_residual(const sp::Csr& a, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  sp::spmv(a, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double bnorm = solve::norm2(b);
  return solve::norm2(r) / (bnorm > 0.0 ? bnorm : 1.0);
}

/// The column-major PCG loop of one system: the recurrence pcg_lockstep
/// must reproduce lane by lane, written out independently of it (plain
/// vectors, sparse::spmv, the solve/vec.hpp loops, m.apply()).
solve::SolveReport reference_pcg(const sp::Csr& a, std::span<const double> b,
                                 std::span<double> x,
                                 const solve::Preconditioner& m,
                                 const solve::CgOptions& opts) {
  const std::size_t n = static_cast<std::size_t>(a.rows);
  std::vector<double> r(n), z(n), p(n), ap(n);
  sp::spmv(a, x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const auto relative = [](double rnorm, double bnorm) {
    return bnorm > 0 ? rnorm / bnorm : rnorm;
  };

  solve::SolveReport rep;
  const double bnorm = solve::norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);
  double rnorm = solve::norm2(r);
  if (opts.record_history) {
    rep.residual_history.push_back(relative(rnorm, bnorm));
  }
  if (rnorm <= stop) {
    rep.converged = true;
  } else if (opts.max_iterations > 0) {
    m.apply(r, z);
    solve::copy(z, p);
    double rho = solve::dot(r, z);
    for (int it = 0;; ++it) {
      sp::spmv(a, p, ap);
      const double denom = solve::dot(p, ap);
      if (denom == 0.0 || !std::isfinite(denom)) {
        rep.breakdown = true;
        rep.breakdown_reason = "p·Ap denominator zero or non-finite";
        break;
      }
      const double alpha = rho / denom;
      solve::axpy(alpha, p, x);
      solve::axpy(-alpha, ap, r);
      rnorm = solve::norm2(r);
      rep.iterations = it + 1;
      if (opts.record_history) {
        rep.residual_history.push_back(relative(rnorm, bnorm));
      }
      if (rnorm <= stop) {
        rep.converged = true;
        break;
      }
      if (it + 1 >= opts.max_iterations) break;
      m.apply(r, z);
      const double rho_new = solve::dot(r, z);
      const double beta = rho_new / rho;
      rho = rho_new;
      solve::xpby(z, beta, p);
    }
  }
  rep.final_relative_residual = relative(rnorm, bnorm);
  return rep;
}

/// Bitwise equality that also holds for NaN payloads.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

TEST(BatchDriver, MixedQueueMeetsToleranceAndMatchesSingleSolvePath) {
  // Ill-conditioned matrix, mixed right-hand sides: a smooth "easy" one, a
  // rough random one, the all-zero system, and a pre-solved guess.
  const sp::Csr a = anisotropic_five_point(16, 16, 1e-3);
  const index_t n = a.rows;
  const double tol = 1e-10;

  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b_easy(static_cast<std::size_t>(n));
  sp::spmv(a, x_true, b_easy);                      // smooth solution
  const auto b_hard = random_vec(n, 21);            // rough rhs
  std::vector<double> b_zero(static_cast<std::size_t>(n), 0.0);

  solve::BatchDriverOptions opts;
  opts.max_iterations = 5000;
  opts.rel_tolerance = tol;
  // Calibration off: the dispatch-per-application accounting below
  // assumes one fixed parallel strategy across the whole drain.
  opts.calibration_epochs = 0;
  solve::BatchDriver driver(pool(), a, opts);

  std::vector<double> x0(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x3 = x_true;  // exact guess: screened, untouched
  driver.enqueue(b_easy, x0);
  driver.enqueue(b_hard, x1);
  driver.enqueue(b_zero, x2);
  driver.enqueue(b_easy, x3);
  EXPECT_EQ(driver.pending(), 4u);

  const auto rep = driver.drain();
  EXPECT_EQ(rep.jobs, 4u);
  ASSERT_EQ(rep.reports.size(), 4u);
  EXPECT_EQ(rep.converged, 4u);
  EXPECT_EQ(rep.screened, 2u) << "zero system and exact guess";
  EXPECT_EQ(rep.reports[2].iterations, 0);
  EXPECT_EQ(rep.reports[3].iterations, 0);
  EXPECT_GT(rep.total_iterations, 0u);
  // Lockstep shape: one plan solve per lockstep iteration for the whole
  // strip — the first application, then one after every iteration that
  // leaves a system running — so the strip costs what its slowest
  // system's iterations cost.
  EXPECT_EQ(rep.precond_solves,
            static_cast<std::uint64_t>(std::max(rep.reports[0].iterations,
                                                rep.reports[1].iterations)));

  // Every solution meets the drain tolerance, re-verified from scratch.
  EXPECT_LE(relative_residual(a, b_easy, x0), tol);
  EXPECT_LE(relative_residual(a, b_hard, x1), tol);
  EXPECT_LE(relative_residual(a, b_easy, x3), tol);
  for (double v : x2) EXPECT_EQ(v, 0.0) << "zero system: x untouched";
  for (std::size_t i = 0; i < x3.size(); ++i) {
    EXPECT_EQ(x3[i], x_true[i]) << "screened job must not touch x";
  }

  // Bitwise identity with the single-solve path: same systems, one at a
  // time, through their own DoacrossIlu0Preconditioner.
  const solve::DoacrossIlu0Preconditioner m(pool(), a);
  solve::CgOptions copts;
  copts.max_iterations = opts.max_iterations;
  copts.rel_tolerance = tol;
  std::vector<double> y0(static_cast<std::size_t>(n), 0.0);
  std::vector<double> y1(static_cast<std::size_t>(n), 0.0);
  const auto rep0 = solve::pcg(a, b_easy, y0, m, copts);
  const auto rep1 = solve::pcg(a, b_hard, y1, m, copts);
  EXPECT_EQ(rep.reports[0].iterations, rep0.iterations);
  EXPECT_EQ(rep.reports[1].iterations, rep1.iterations);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(x0[static_cast<std::size_t>(i)],
              y0[static_cast<std::size_t>(i)])
        << i;
    ASSERT_EQ(x1[static_cast<std::size_t>(i)],
              y1[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(BatchDriver, BicgstabDrainOnNonsymmetricMatchesSingleSolves) {
  const sp::Csr a = gen::block_seven_point(
      {.nx = 4, .ny = 3, .nz = 2, .block = 3, .seed = 13});
  const index_t n = a.rows;
  const double tol = 1e-9;

  solve::BatchDriverOptions opts;
  opts.method = solve::KrylovMethod::kBicgstab;
  opts.max_iterations = 2000;
  opts.rel_tolerance = tol;
  solve::BatchDriver driver(pool(), a, opts);

  const int jobs = 5;
  std::vector<std::vector<double>> b(jobs), x(jobs);
  for (int j = 0; j < jobs; ++j) {
    b[static_cast<std::size_t>(j)] =
        random_vec(n, 50 + static_cast<std::uint64_t>(j));
    x[static_cast<std::size_t>(j)].assign(static_cast<std::size_t>(n), 0.0);
    driver.enqueue(b[static_cast<std::size_t>(j)],
                   x[static_cast<std::size_t>(j)]);
  }
  const auto rep = driver.drain();
  EXPECT_EQ(rep.converged, static_cast<std::size_t>(jobs));

  const solve::DoacrossIlu0Preconditioner m(pool(), a);
  solve::BicgstabOptions bopts;
  bopts.max_iterations = opts.max_iterations;
  bopts.rel_tolerance = tol;
  for (int j = 0; j < jobs; ++j) {
    EXPECT_LE(relative_residual(a, b[static_cast<std::size_t>(j)],
                                x[static_cast<std::size_t>(j)]),
              tol)
        << "job " << j;
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    const auto single =
        solve::bicgstab(a, b[static_cast<std::size_t>(j)], y, m, bopts);
    EXPECT_EQ(rep.reports[static_cast<std::size_t>(j)].iterations,
              single.iterations)
        << "job " << j;
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << "job " << j << " row " << i;
    }
  }
}

TEST(BatchDriver, SecondDrainScreensAlreadySolvedSystems) {
  const sp::Csr a = gen::five_point(12, 12);
  const index_t n = a.rows;
  solve::BatchDriver driver(pool(), a, {});

  const auto b0 = random_vec(n, 71);
  const auto b1 = random_vec(n, 72);
  std::vector<double> x0(static_cast<std::size_t>(n), 0.0),
      x1(static_cast<std::size_t>(n), 0.0);
  driver.enqueue(b0, x0);
  driver.enqueue(b1, x1);
  const auto first = driver.drain();
  EXPECT_EQ(first.converged, 2u);
  EXPECT_EQ(driver.pending(), 0u);

  // Re-enqueue the solved (b, x) pairs: the screen answers both with zero
  // Krylov work and no pool dispatch (its SpMVs run on the calling
  // thread).
  driver.enqueue(b0, x0);
  driver.enqueue(b1, x1);
  const auto second = driver.drain();
  EXPECT_EQ(second.jobs, 2u);
  EXPECT_EQ(second.screened, 2u);
  EXPECT_EQ(second.converged, 2u);
  EXPECT_EQ(second.total_iterations, 0u);
  EXPECT_EQ(second.precond_solves, 0u);
  EXPECT_EQ(second.pool_dispatches, 0u);
}

TEST(BatchDriver, EmptyDrainAndGuards) {
  const sp::Csr a = gen::five_point(6, 6);
  solve::BatchDriver driver(pool(), a, {});
  const rt::DispatchProbe probe(pool());
  const auto rep = driver.drain();
  EXPECT_EQ(rep.jobs, 0u);
  EXPECT_EQ(rep.pool_dispatches, 0u);
  EXPECT_EQ(probe.delta(), 0u);

  std::vector<double> small(3), x(static_cast<std::size_t>(a.rows));
  EXPECT_THROW(driver.enqueue(small, x), std::invalid_argument);
  solve::BatchDriverOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(solve::BatchDriver(pool(), a, bad), std::invalid_argument);
}

namespace {

/// One strip of the property test: column c's (b, x0), cycling through
/// screened systems (exact guess, zero system), a rough right-hand side
/// from a zero guess (runs out of a small iteration budget), and guesses perturbed by 1e-2 .. 1e-8 from the
/// solution, which converge after different iteration counts.
struct Strip {
  std::vector<std::vector<double>> b, x0;
};

Strip make_strip(const sp::Csr& a, index_t k, std::uint64_t seed) {
  const index_t n = a.rows;
  Strip s;
  for (index_t c = 0; c < k; ++c) {
    const std::uint64_t cs = seed + 97 * static_cast<std::uint64_t>(c);
    const auto x_true = random_vec(n, cs);
    std::vector<double> b(static_cast<std::size_t>(n));
    sp::spmv(a, x_true, b);
    std::vector<double> x0 = x_true;
    const index_t kind = (c + 1) % 6;
    if (kind == 0 && c % 12 == 11) {
      b.assign(b.size(), 0.0);  // zero system, zero guess: screened
      x0.assign(x0.size(), 0.0);
    } else if (kind == 1) {
      b = random_vec(n, cs + 1);  // rough rhs, zero guess
      x0.assign(x0.size(), 0.0);
    } else if (kind >= 2) {
      const auto noise = random_vec(n, cs + 2);
      const double eps = std::pow(10.0, -2.0 * static_cast<double>(kind - 1));
      for (std::size_t i = 0; i < x0.size(); ++i) x0[i] += eps * noise[i];
    }  // kind 0 otherwise: exact guess, screened
    s.b.push_back(std::move(b));
    s.x0.push_back(std::move(x0));
  }
  return s;
}

void expect_same_report(const solve::SolveReport& got,
                        const solve::SolveReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_EQ(got.breakdown, want.breakdown) << where;
  EXPECT_TRUE(
      same_bits(got.final_relative_residual, want.final_relative_residual))
      << where << ": " << got.final_relative_residual << " vs "
      << want.final_relative_residual;
  ASSERT_EQ(got.residual_history.size(), want.residual_history.size())
      << where;
  for (std::size_t i = 0; i < got.residual_history.size(); ++i) {
    EXPECT_TRUE(same_bits(got.residual_history[i], want.residual_history[i]))
        << where << " history " << i;
  }
}

/// The lane groups a drain of `live` unscreened CG systems splits into:
/// min(width, live / kLaneMin) on a settled serial plan when that is at
/// least 2, else 1.
unsigned expected_groups(bool settled_serial, unsigned width,
                         std::size_t live) {
  if (!settled_serial) return 1;
  const std::size_t g = std::min<std::size_t>(
      width, live / static_cast<std::size_t>(sp::kernels::kLaneMin));
  return g >= 2 ? static_cast<unsigned>(g) : 1;
}

/// The plan strip applications of a CG drain: one lockstep solve per
/// lane group over the partition BatchReport::lane_groups states, each
/// costing its slowest system's iterations (the first application, then
/// one after every iteration that leaves a system running).
std::uint64_t expected_solves(const solve::BatchReport& rep) {
  std::vector<int> live;  // iterations of each unscreened system
  for (const solve::SolveReport& r : rep.reports) {
    if (!(r.converged && r.iterations == 0)) live.push_back(r.iterations);
  }
  std::uint64_t total = 0;
  for (unsigned g = 0; g < rep.lane_groups; ++g) {
    const rt::IterRange r = rt::static_block_range(
        static_cast<index_t>(live.size()), g, rep.lane_groups);
    int slowest = 0;
    for (index_t i = r.begin; i < r.end; ++i) {
      slowest = std::max(slowest, live[static_cast<std::size_t>(i)]);
    }
    total += static_cast<std::uint64_t>(slowest);
  }
  return total;
}

}  // namespace

TEST(BatchDriver, LockstepCgMatchesColumnMajorReferenceBitwise) {
  struct Case {
    const char* name;
    sp::Csr a;
  };
  const std::vector<Case> cases = {
      {"isotropic", gen::five_point(12, 12)},
      {"anisotropic", anisotropic_five_point(14, 10, 1e-2)},
  };
  const std::vector<sp::ExecutionStrategy> strategies = {
      sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross,
      sp::ExecutionStrategy::kLevelBarrier};
  const int max_iterations = 8;
  const double tol = 1e-10;

  for (const Case& cs : cases) {
    const index_t n = cs.a.rows;
    for (unsigned threads : {1u, 2u, 4u}) {
      for (sp::ExecutionStrategy strategy : strategies) {
        solve::BatchDriverOptions opts;
        opts.max_iterations = max_iterations;
        opts.rel_tolerance = tol;
        opts.record_history = true;
        opts.nthreads = threads;
        opts.strategy = strategy;
        opts.calibration_epochs = 0;
        opts.use_tuning_cache = false;
        solve::BatchDriver driver(pool(), cs.a, opts);
        const solve::Ilu0Preconditioner m(cs.a);
        solve::CgOptions copts;
        copts.max_iterations = max_iterations;
        copts.rel_tolerance = tol;
        copts.record_history = true;

        for (index_t k : {1, 2, 3, 8, 17, 33}) {
          const std::string cfg =
              std::string(cs.name) + " threads " + std::to_string(threads) +
              " " + pdx::core::to_string(strategy) + " k " +
              std::to_string(k);
          const Strip s = make_strip(cs.a, k, 1000 + static_cast<std::uint64_t>(k));
          std::vector<std::vector<double>> x = s.x0;
          for (index_t c = 0; c < k; ++c) {
            driver.enqueue(s.b[static_cast<std::size_t>(c)],
                           x[static_cast<std::size_t>(c)]);
          }
          const auto rep = driver.drain();
          ASSERT_EQ(rep.reports.size(), static_cast<std::size_t>(k)) << cfg;

          int screened = 0, out_of_budget = 0, slowest = 0;
          std::vector<int> converged_at;
          for (index_t c = 0; c < k; ++c) {
            const std::size_t cc = static_cast<std::size_t>(c);
            std::vector<double> y = s.x0[cc];
            const auto want = reference_pcg(cs.a, s.b[cc], y, m, copts);
            const std::string where = cfg + " column " + std::to_string(c);
            const auto& got = rep.reports[cc];
            expect_same_report(got, want, where);
            EXPECT_EQ(got.attempts, 1) << where;
            for (index_t i = 0; i < n; ++i) {
              ASSERT_EQ(x[cc][static_cast<std::size_t>(i)],
                        y[static_cast<std::size_t>(i)])
                  << where << " row " << i;
            }
            slowest = std::max(slowest, got.iterations);
            if (got.converged && got.iterations == 0) ++screened;
            if (got.converged && got.iterations > 0) {
              converged_at.push_back(got.iterations);
            }
            if (!got.converged) ++out_of_budget;
          }
          EXPECT_EQ(rep.screened, static_cast<std::size_t>(screened)) << cfg;
          // Settled serial plans (calibration off) wider than one thread
          // split into lane groups; each group's lockstep solve costs its
          // own slowest system's iterations.
          EXPECT_EQ(rep.lane_groups,
                    expected_groups(
                        strategy == sp::ExecutionStrategy::kSerial, threads,
                        static_cast<std::size_t>(k - screened)))
              << cfg;
          EXPECT_EQ(rep.precond_solves, expected_solves(rep)) << cfg;
          if (rep.lane_groups == 1) {
            EXPECT_EQ(rep.precond_solves, static_cast<std::uint64_t>(slowest))
                << cfg;
          }
          if (k >= 8) {
            // The strip really mixes every way a column can leave it.
            std::sort(converged_at.begin(), converged_at.end());
            converged_at.erase(
                std::unique(converged_at.begin(), converged_at.end()),
                converged_at.end());
            EXPECT_GE(screened, 1) << cfg;
            EXPECT_GE(converged_at.size(), 2u) << cfg;
            EXPECT_GE(out_of_budget, 1) << cfg;
          }
        }
      }
    }
  }
}

TEST(BatchDriver, LockstepStragglersFollowThePerJobLadder) {
  const sp::Csr a = anisotropic_five_point(14, 10, 1e-2);
  const index_t n = a.rows;
  const int max_iterations = 3;
  const int factor = 2;
  const double tol = 1e-10;

  solve::BatchDriverOptions opts;
  opts.max_iterations = max_iterations;
  opts.rel_tolerance = tol;
  opts.record_history = true;
  opts.max_attempts = 3;
  opts.retry_iteration_factor = factor;
  opts.nthreads = 2;
  opts.strategy = sp::ExecutionStrategy::kDoacross;
  opts.calibration_epochs = 0;
  opts.use_tuning_cache = false;
  solve::BatchDriver driver(pool(), a, opts);
  const solve::DoacrossIlu0Preconditioner m(pool(), a, /*reorder=*/true, 2,
                                            sp::ExecutionStrategy::kDoacross);

  const index_t k = 12;
  const Strip s = make_strip(a, k, 4242);
  std::vector<std::vector<double>> x = s.x0;
  for (index_t c = 0; c < k; ++c) {
    driver.enqueue(s.b[static_cast<std::size_t>(c)],
                   x[static_cast<std::size_t>(c)]);
  }
  const auto rep = driver.drain();

  // The per-job ladder: pcg at the base budget, pcg again at the widened
  // budget, then BiCGSTAB — each warm-started from the previous x.
  std::size_t retried = 0, escalated = 0;
  for (index_t c = 0; c < k; ++c) {
    const std::size_t cc = static_cast<std::size_t>(c);
    std::vector<double> y = s.x0[cc];
    solve::CgOptions copts;
    copts.max_iterations = max_iterations;
    copts.rel_tolerance = tol;
    copts.record_history = true;
    solve::SolveReport want = solve::pcg(a, s.b[cc], y, m, copts);
    int attempts = 1;
    if (!want.converged) {
      copts.max_iterations = max_iterations * factor;
      want = solve::pcg(a, s.b[cc], y, m, copts);
      ++attempts;
    }
    if (!want.converged) {
      solve::BicgstabOptions bopts;
      bopts.max_iterations = max_iterations * factor;
      bopts.rel_tolerance = tol;
      bopts.record_history = true;
      want = solve::bicgstab(a, s.b[cc], y, m, bopts);
      ++attempts;
    }
    if (attempts > 1) ++retried;
    if (attempts > 2) ++escalated;
    const std::string where = "column " + std::to_string(c);
    const auto& got = rep.reports[cc];
    expect_same_report(got, want, where);
    EXPECT_EQ(got.attempts, attempts) << where;
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[cc][static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << where << " row " << i;
    }
  }
  EXPECT_EQ(rep.retried, retried);
  EXPECT_GE(retried, 2u) << "the strip must leave stragglers to the ladder";
  EXPECT_GE(escalated, 1u) << "and one of them must escalate to BiCGSTAB";
}

TEST(BatchDriver, WideFirstStripRacesThreeCandidateBudgets) {
  // Under kAuto the strategy race runs inside the first strip: its epochs
  // are lockstep applications whose width shrinks as systems converge.
  // The race still spends exactly 3 x calibration_epochs epochs, each
  // candidate the same budget, and locks in the per-column argmin; every
  // column stays bitwise equal to pcg.
  const sp::Csr a = anisotropic_five_point(14, 10, 1e-2);
  const index_t n = a.rows;
  const int max_iterations = 8;
  const double tol = 1e-10;

  solve::BatchDriverOptions opts;
  opts.max_iterations = max_iterations;
  opts.rel_tolerance = tol;
  opts.nthreads = 2;
  opts.strategy = sp::ExecutionStrategy::kAuto;
  opts.calibration_epochs = 2;
  opts.use_tuning_cache = false;
  solve::BatchDriver driver(pool(), a, opts);
  const auto& race = driver.preconditioner().plan().telemetry().race;
  ASSERT_FALSE(race.calibrated);

  const index_t k = 16;
  const Strip s = make_strip(a, k, 777);
  std::vector<std::vector<double>> x = s.x0;
  for (index_t c = 0; c < k; ++c) {
    driver.enqueue(s.b[static_cast<std::size_t>(c)],
                   x[static_cast<std::size_t>(c)]);
  }
  const auto rep = driver.drain();
  ASSERT_GE(rep.precond_solves,
            static_cast<std::uint64_t>(3 * opts.calibration_epochs));

  EXPECT_TRUE(race.calibrated);
  EXPECT_EQ(race.exploration_epochs, 3 * opts.calibration_epochs);
  ASSERT_EQ(race.timings.size(), 3u);
  std::size_t best = 0;
  for (std::size_t i = 0; i < race.timings.size(); ++i) {
    EXPECT_EQ(race.timings[i].epochs, opts.calibration_epochs);
    EXPECT_GT(race.timings[i].best_us, 0.0);
    if (race.timings[i].best_us < race.timings[best].best_us) best = i;
  }
  EXPECT_EQ(driver.preconditioner().plan().strategy(),
            race.timings[best].choice);

  const solve::DoacrossIlu0Preconditioner m(pool(), a, /*reorder=*/true, 1,
                                            sp::ExecutionStrategy::kSerial);
  solve::CgOptions copts;
  copts.max_iterations = max_iterations;
  copts.rel_tolerance = tol;
  for (index_t c = 0; c < k; ++c) {
    const std::size_t cc = static_cast<std::size_t>(c);
    std::vector<double> y = s.x0[cc];
    const auto want = solve::pcg(a, s.b[cc], y, m, copts);
    const std::string where = "column " + std::to_string(c);
    EXPECT_EQ(rep.reports[cc].iterations, want.iterations) << where;
    EXPECT_EQ(rep.reports[cc].final_relative_residual,
              want.final_relative_residual)
        << where;
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[cc][static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << where << " row " << i;
    }
  }
}

TEST(BatchDriver, LockstepLanesLeaveAnywhereAndMatchTheReferenceBitwise) {
  // pcg_lockstep on its own: every lane's x and report equal the
  // column-major reference loop exactly, while systems leave from the
  // first, a middle and the last lane at different iterations, the rest
  // run out of budget, and one NaN right-hand side breaks down alone.
  const sp::Csr a = gen::five_point(24, 24);
  const index_t n = a.rows;
  const std::size_t nn = static_cast<std::size_t>(n);
  const solve::Ilu0Preconditioner ref_m(a);
  solve::CgOptions copts;
  copts.max_iterations = 30;
  copts.rel_tolerance = 1e-10;
  const std::vector<sp::ExecutionStrategy> strategies = {
      sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross,
      sp::ExecutionStrategy::kLevelBarrier};

  for (unsigned threads : {1u, 2u, 4u}) {
    for (sp::ExecutionStrategy strategy : strategies) {
      const solve::DoacrossIlu0Preconditioner m(pool(), a, /*reorder=*/true,
                                                threads, strategy);
      solve::CgScratch scratch;  // reused across k: grows, never shrinks
      for (index_t k : {1, 2, 3, 5, 8, 17, 33}) {
        const std::string cfg = std::string(pdx::core::to_string(strategy)) +
                                " threads " + std::to_string(threads) +
                                " k " + std::to_string(k);
        const index_t mid = k / 2;
        const index_t nan_lane = k >= 5 ? 1 : -1;
        std::vector<std::vector<double>> b(static_cast<std::size_t>(k)),
            x0(static_cast<std::size_t>(k)), r(static_cast<std::size_t>(k));
        for (index_t c = 0; c < k; ++c) {
          const std::size_t cc = static_cast<std::size_t>(c);
          // Perturbed guesses converge at distinct iterations (first <
          // middle < last lane); every other lane solves a rough
          // right-hand side from zero and runs out of budget.
          if (c == 0 || c == mid || c == k - 1) {
            const double eps = c == 0 ? 1e-9 : c == mid ? 1e-6 : 1e-3;
            const auto x_true = random_vec(n, 500 + 31 * cc);
            const auto noise = random_vec(n, 900 + cc);
            b[cc].resize(nn);
            sp::spmv(a, x_true, b[cc]);
            x0[cc] = x_true;
            for (std::size_t i = 0; i < nn; ++i) x0[cc][i] += eps * noise[i];
          } else {
            b[cc] = random_vec(n, 700 + cc);
            x0[cc].assign(nn, 0.0);
          }
          if (c == nan_lane) b[cc][nn / 2] = std::nan("");
          r[cc].resize(nn);
          sp::spmv(a, x0[cc], r[cc]);
          for (std::size_t i = 0; i < nn; ++i) r[cc][i] = b[cc][i] - r[cc][i];
        }

        std::vector<std::vector<double>> x = x0;
        std::vector<solve::SolveReport> got(static_cast<std::size_t>(k));
        std::vector<solve::CgSystem> systems;
        for (index_t c = 0; c < k; ++c) {
          const std::size_t cc = static_cast<std::size_t>(c);
          systems.push_back({b[cc], x[cc], r[cc].data(), &got[cc]});
        }
        solve::pcg_lockstep(a, systems, m, copts, scratch);

        std::size_t breakdowns = 0;
        for (index_t c = 0; c < k; ++c) {
          const std::size_t cc = static_cast<std::size_t>(c);
          std::vector<double> y = x0[cc];
          const auto want = reference_pcg(a, b[cc], y, ref_m, copts);
          const std::string where = cfg + " lane " + std::to_string(c);
          expect_same_report(got[cc], want, where);
          for (std::size_t i = 0; i < nn; ++i) {
            ASSERT_TRUE(same_bits(x[cc][i], y[i])) << where << " row " << i;
          }
          if (got[cc].breakdown) ++breakdowns;
        }
        EXPECT_EQ(breakdowns, nan_lane >= 0 ? 1u : 0u) << cfg;
        if (nan_lane >= 0) {
          const auto& bad = got[static_cast<std::size_t>(nan_lane)];
          EXPECT_TRUE(bad.breakdown) << cfg;
          EXPECT_EQ(bad.iterations, 0) << cfg;
          EXPECT_EQ(x[static_cast<std::size_t>(nan_lane)],
                    x0[static_cast<std::size_t>(nan_lane)])
              << cfg << ": a breakdown writes the x from before the update";
        }
        if (k >= 3) {
          // The leavers really leave from three places at three times.
          const int first = got[0].iterations;
          const int middle = got[static_cast<std::size_t>(mid)].iterations;
          const int last = got[static_cast<std::size_t>(k - 1)].iterations;
          EXPECT_TRUE(got[0].converged) << cfg;
          EXPECT_TRUE(got[static_cast<std::size_t>(mid)].converged) << cfg;
          EXPECT_TRUE(got[static_cast<std::size_t>(k - 1)].converged) << cfg;
          EXPECT_LT(first, middle) << cfg;
          EXPECT_LT(middle, last) << cfg;
          EXPECT_LT(last, copts.max_iterations) << cfg;
        }
        if (k >= 5) {
          const auto& rough = got[static_cast<std::size_t>(k - 2)];
          EXPECT_FALSE(rough.converged) << cfg << ": a rough lane runs out";
          EXPECT_EQ(rough.iterations, copts.max_iterations) << cfg;
        }
      }
    }
  }
}

TEST(BatchDriver, LockstepBreakdownAfterProgressWritesThePreUpdateX) {
  // A = diag(1, 0) with M = I (the default, lane-by-lane apply_strip).
  // From x = 0: b = (1, 0) converges at iteration 1; b = (0, 1) breaks
  // down at once (p·Ap = 0); b = (1, 1) takes one step to x = (2, 2) and
  // breaks down on the second, so it must leave with x = (2, 2) — the x
  // from before the iteration that broke — not the zero guess.
  sp::CsrBuilder bld(2, 2);
  bld.add(0, 0, 1.0);
  const sp::Csr a = bld.build();
  const solve::IdentityPreconditioner m;
  const std::vector<std::vector<double>> b = {{1.0, 0.0}, {0.0, 1.0},
                                              {1.0, 1.0}};
  std::vector<std::vector<double>> x(3, std::vector<double>(2, 0.0));
  std::vector<solve::SolveReport> got(3);
  std::vector<solve::CgSystem> systems;
  for (std::size_t c = 0; c < 3; ++c) {
    systems.push_back({b[c], x[c], b[c].data(), &got[c]});  // r = b - A·0
  }
  solve::CgOptions copts;
  copts.max_iterations = 10;
  solve::CgScratch scratch;
  solve::pcg_lockstep(a, systems, m, copts, scratch);

  EXPECT_TRUE(got[0].converged);
  EXPECT_EQ(got[0].iterations, 1);
  EXPECT_TRUE(got[1].breakdown);
  EXPECT_EQ(got[1].iterations, 0);
  EXPECT_TRUE(got[2].breakdown);
  EXPECT_EQ(got[2].iterations, 1);
  EXPECT_EQ(x[2], (std::vector<double>{2.0, 2.0}));
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> y(2, 0.0);
    const auto want = reference_pcg(a, b[c], y, m, copts);
    expect_same_report(got[c], want, "system " + std::to_string(c));
    EXPECT_EQ(x[c], y) << "system " << c;
  }
}

namespace {

/// A strip laid out for `groups` lane groups (rt::static_block_range
/// over k, as BatchReport::lane_groups states). Within each group the
/// first, middle and last lanes start from guesses perturbed by 1e-9,
/// 1e-6 and 1e-3 off their solutions, so they converge at three
/// different iterations; every other lane solves a rough right-hand side
/// from zero and runs out of budget. Lane `nan_lane` (-1: none) gets one
/// NaN right-hand-side entry.
Strip make_group_strip(const sp::Csr& a, index_t k, unsigned groups,
                       index_t nan_lane, std::uint64_t seed) {
  const index_t n = a.rows;
  const std::size_t nn = static_cast<std::size_t>(n);
  Strip s;
  s.b.resize(static_cast<std::size_t>(k));
  s.x0.resize(static_cast<std::size_t>(k));
  for (unsigned g = 0; g < groups; ++g) {
    const rt::IterRange r = rt::static_block_range(k, g, groups);
    const index_t mid = r.begin + r.size() / 2;
    for (index_t c = r.begin; c < r.end; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      const std::uint64_t cs = seed + 97 * cc;
      std::vector<double>& b = s.b[cc];
      std::vector<double>& x0 = s.x0[cc];
      if (c == r.begin || c == mid || c == r.end - 1) {
        const double eps = c == r.begin ? 1e-9 : c == mid ? 1e-6 : 1e-3;
        const auto x_true = random_vec(n, cs);
        const auto noise = random_vec(n, cs + 1);
        b.resize(nn);
        sp::spmv(a, x_true, b);
        x0 = x_true;
        for (std::size_t i = 0; i < nn; ++i) x0[i] += eps * noise[i];
      } else {
        b = random_vec(n, cs + 2);
        x0.assign(nn, 0.0);
      }
      if (c == nan_lane) b[nn / 2] = std::nan("");
    }
  }
  return s;
}

/// Enqueue `s` into `driver` from copies of its guesses, drain, and check
/// every lane's x and report bit for bit against the column-major
/// reference over sequential ILU(0). Returns the drain's report.
solve::BatchReport drain_and_compare(solve::BatchDriver& driver,
                                     const sp::Csr& a, const Strip& s,
                                     const solve::CgOptions& copts,
                                     const std::string& cfg) {
  const solve::Ilu0Preconditioner ref_m(a);
  const std::size_t k = s.b.size();
  std::vector<std::vector<double>> x = s.x0;
  for (std::size_t c = 0; c < k; ++c) driver.enqueue(s.b[c], x[c]);
  const solve::BatchReport rep = driver.drain();
  EXPECT_EQ(rep.reports.size(), k) << cfg;
  for (std::size_t c = 0; c < k && c < rep.reports.size(); ++c) {
    std::vector<double> y = s.x0[c];
    const auto want = reference_pcg(a, s.b[c], y, ref_m, copts);
    const std::string where = cfg + " lane " + std::to_string(c);
    expect_same_report(rep.reports[c], want, where);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_TRUE(same_bits(x[c][i], y[i])) << where << " row " << i;
      if (!same_bits(x[c][i], y[i])) break;
    }
  }
  return rep;
}

solve::BatchDriverOptions settled_serial_opts(unsigned width,
                                              const solve::CgOptions& copts) {
  solve::BatchDriverOptions opts;
  opts.max_iterations = copts.max_iterations;
  opts.rel_tolerance = copts.rel_tolerance;
  opts.record_history = copts.record_history;
  opts.nthreads = width;
  opts.strategy = sp::ExecutionStrategy::kSerial;
  opts.calibration_epochs = 0;  // no order race: source order throughout
  opts.use_tuning_cache = false;
  return opts;
}

}  // namespace

TEST(BatchDriver, LaneGroupsSplitASettledSerialDrainAndMatchTheReferenceBitwise) {
  // A pinned serial plan is settled from the start, so every drain of at
  // least 2 * kLaneMin systems on a wider region splits into lane
  // groups, all of them in ONE pool dispatch (the serial strip
  // solves cost none). Lanes leave first, middle and last within each
  // group at different iterations, the rest run out of budget, and one
  // NaN right-hand side in group 1 breaks down alone — every lane bitwise
  // equal to the reference.
  const sp::Csr a = gen::five_point(24, 24);
  solve::CgOptions copts;
  copts.max_iterations = 30;
  copts.rel_tolerance = 1e-10;
  copts.record_history = true;

  for (unsigned width : {2u, 3u, 4u}) {
    solve::BatchDriver driver(pool(), a, settled_serial_opts(width, copts));
    ASSERT_TRUE(driver.preconditioner().plan().settled());
    for (index_t k : {8, 9, 17, 24, 33}) {
      const std::string cfg =
          "width " + std::to_string(width) + " k " + std::to_string(k);
      const unsigned groups =
          expected_groups(true, width, static_cast<std::size_t>(k));
      ASSERT_GE(groups, 2u) << cfg;
      const index_t nan_lane = rt::static_block_range(k, 1, groups).begin + 1;
      const Strip s = make_group_strip(a, k, groups, nan_lane,
                                       3000 + static_cast<std::uint64_t>(k));
      const solve::BatchReport rep = drain_and_compare(driver, a, s, copts, cfg);
      ASSERT_EQ(rep.reports.size(), static_cast<std::size_t>(k)) << cfg;

      EXPECT_EQ(rep.screened, 0u) << cfg;
      EXPECT_EQ(rep.lane_groups, groups) << cfg;
      EXPECT_EQ(rep.pool_dispatches, 1u) << cfg;
      EXPECT_EQ(rep.precond_solves, expected_solves(rep)) << cfg;
      EXPECT_FALSE(rep.degraded_serial) << cfg;
      EXPECT_EQ(rep.breakdowns, 1u) << cfg;
      EXPECT_TRUE(rep.reports[static_cast<std::size_t>(nan_lane)].breakdown)
          << cfg;
      for (unsigned g = 0; g < groups; ++g) {
        const rt::IterRange r = rt::static_block_range(k, g, groups);
        const auto& first = rep.reports[static_cast<std::size_t>(r.begin)];
        const auto& middle =
            rep.reports[static_cast<std::size_t>(r.begin + r.size() / 2)];
        const auto& last = rep.reports[static_cast<std::size_t>(r.end - 1)];
        const std::string where = cfg + " group " + std::to_string(g);
        EXPECT_TRUE(first.converged && middle.converged && last.converged)
            << where;
        EXPECT_LT(first.iterations, middle.iterations) << where;
        EXPECT_LT(middle.iterations, last.iterations) << where;
        EXPECT_LT(last.iterations, copts.max_iterations) << where;
        if (g != 1) {
          const auto& rough = rep.reports[static_cast<std::size_t>(r.begin + 1)];
          EXPECT_FALSE(rough.converged) << where << ": a rough lane runs out";
          EXPECT_EQ(rough.iterations, copts.max_iterations) << where;
        }
      }
    }
  }
}

TEST(BatchDriver, LaneGroupsSplitTheFirstDrainOfACalibratingSerialPlan) {
  // The lane-kernel table is fixed per process, so only a strategy race
  // holds back settled(). A pinned serial plan with a calibration budget
  // is settled from construction: its first drain of 16 systems splits
  // into 2 lane groups, every lane bitwise the reference. A kAuto plan
  // is settled on the very run its strategy race locks in.
  const sp::Csr a = gen::five_point(24, 24);
  solve::CgOptions copts;
  copts.max_iterations = 30;
  copts.rel_tolerance = 1e-10;
  copts.record_history = true;
  solve::BatchDriverOptions opts = settled_serial_opts(2, copts);
  opts.calibration_epochs = 2;
  solve::BatchDriver driver(pool(), a, opts);
  ASSERT_TRUE(driver.preconditioner().plan().settled());

  const Strip s = make_group_strip(a, 16, 2, -1, 5000);
  const solve::BatchReport rep =
      drain_and_compare(driver, a, s, copts, "first drain");
  EXPECT_EQ(rep.lane_groups, 2u);
  EXPECT_EQ(rep.precond_solves, expected_solves(rep));

  const sp::IluFactors f = sp::ilu0(a);
  sp::PlanOptions popts;
  popts.nthreads = 2;
  popts.strategy = sp::ExecutionStrategy::kAuto;
  popts.calibration_epochs = 2;
  popts.use_tuning_cache = false;
  sp::TrisolvePlan plan(pool(), f.l, f.u, popts);
  ASSERT_TRUE(plan.calibrating());
  const std::vector<double> b(static_cast<std::size_t>(a.rows) * 8, 1.0);
  std::vector<double> x(b.size());
  for (int run = 0; plan.calibrating(); ++run) {
    ASSERT_LT(run, 64) << "the strategy race must lock in";
    plan.solve_strip(b, x, 8);
  }
  EXPECT_TRUE(plan.settled());
}

TEST(BatchDriver, LaneGroupsDoNotWaitForTheOrderRace) {
  // The order race of a serial plan never holds back settled(): a plan
  // whose race has yet to see a single run splits a drain of 16 systems
  // into lane groups at once. Their columns run on the reentrant entry
  // inside the region, so the drain feeds the race nothing; one single-
  // RHS drain on the calling thread then does.
  const sp::Csr a = gen::five_point(24, 24);
  solve::CgOptions copts;
  copts.max_iterations = 30;
  copts.rel_tolerance = 1e-10;
  copts.record_history = true;
  solve::BatchDriverOptions opts = settled_serial_opts(2, copts);
  opts.calibration_epochs = 2;
  solve::BatchDriver driver(pool(), a, opts);
  const sp::TrisolvePlan& plan = driver.preconditioner().plan();
  ASSERT_TRUE(plan.order_racing());
  ASSERT_TRUE(plan.settled());

  const Strip s = make_group_strip(a, 16, 2, -1, 7000);
  const solve::BatchReport rep = drain_and_compare(driver, a, s, copts, "x16");
  EXPECT_EQ(rep.lane_groups, 2u);
  EXPECT_EQ(rep.precond_solves, expected_solves(rep));
  EXPECT_EQ(plan.telemetry().order_race.exploration_epochs, 0);
  EXPECT_TRUE(plan.order_racing());

  const Strip one = make_group_strip(a, 1, 1, -1, 7100);
  const solve::BatchReport rep1 =
      drain_and_compare(driver, a, one, copts, "x1");
  EXPECT_EQ(rep1.lane_groups, 1u);
  ASSERT_GT(rep1.precond_solves, 0u);
  EXPECT_EQ(plan.telemetry().order_race.exploration_epochs,
            std::min<int>(static_cast<int>(rep1.precond_solves),
                          2 * opts.calibration_epochs));
}

TEST(BatchDriver, AFaultInOneLaneGroupPoisonsThePlanButNoAnswer) {
  // A row fault inside one group's serial strip solve — group 1's on pool
  // member 1, or group 0's on the caller — poisons the shared plan. The
  // faulting group recomputes that application sequentially, the other
  // group's next application finds the plan poisoned and degrades too,
  // and every answer stays bitwise exact. The next drain runs whole on
  // the sequential fallback.
  const sp::Csr a = gen::five_point(24, 24);
  solve::CgOptions copts;
  copts.max_iterations = 30;
  copts.rel_tolerance = 1e-10;
  copts.record_history = true;
  const index_t k = 16;

  for (int tid : {1, 0}) {
    const std::string cfg = "fault in group " + std::to_string(tid);
    solve::BatchDriver driver(pool(), a, settled_serial_opts(2, copts));
    rt::FaultInjector injector;
    driver.set_fault_injector(&injector);
    injector.arm_throw(tid, a.rows / 2, "injected lane-group fault");

    const Strip s = make_group_strip(a, k, 2, -1, 6000);
    const solve::BatchReport rep = drain_and_compare(driver, a, s, copts, cfg);
    EXPECT_EQ(injector.faults_fired(), 1) << cfg;
    EXPECT_EQ(rep.lane_groups, 2u) << cfg;
    EXPECT_TRUE(rep.degraded_serial) << cfg;
    EXPECT_TRUE(driver.preconditioner().degraded()) << cfg;
    EXPECT_GT(driver.preconditioner().serial_fallbacks(), 0u) << cfg;

    const Strip again = make_group_strip(a, k, 2, -1, 6100);
    const solve::BatchReport next =
        drain_and_compare(driver, a, again, copts, cfg + " next drain");
    EXPECT_EQ(next.lane_groups, 1u) << cfg;
    EXPECT_TRUE(next.degraded_serial) << cfg;
  }
}
