// sparse_triangular_cg — the paper's §3.2 context end to end.
//
// Solves a Poisson system with ILU(0)-preconditioned conjugate gradients.
// Each CG iteration applies the preconditioner by solving two sparse
// triangular systems (paper Fig. 7); here those solves run through the
// preprocessed doacross with doconsider reordering, and we report how much
// of the solver's time they account for — the motivation quoted from [1].
//
// Build & run:  ./examples/sparse_triangular_cg [grid]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchsupport/timer.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "sparse/levels.hpp"
#include "sparse/spmv.hpp"

using pdx::index_t;
namespace gen = pdx::gen;
namespace sp = pdx::sparse;
namespace solve = pdx::solve;

int main(int argc, char** argv) {
  const index_t grid = argc > 1 ? std::atoll(argv[1]) : 63;
  const sp::Csr a = gen::five_point(grid, grid);
  std::printf("5-point Poisson, %lld x %lld grid -> %lld equations, %lld nnz\n",
              static_cast<long long>(grid), static_cast<long long>(grid),
              static_cast<long long>(a.rows), static_cast<long long>(a.nnz()));

  // Manufactured solution -> right-hand side.
  gen::SplitMix64 rng(63);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (auto& v : x_true) v = rng.next_double(-1.0, 1.0);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  sp::spmv(a, x_true, b);

  pdx::rt::ThreadPool pool;

  // Dependence profile of the ILU(0) lower factor: how much parallelism
  // the doacross has to work with.
  const sp::DagProfile prof = sp::profile_lower_solve(
      solve::Ilu0Preconditioner(a).factors().l);
  std::printf("L factor: critical path %lld, average parallelism %.1f\n",
              static_cast<long long>(prof.critical_path),
              prof.avg_parallelism);

  auto run = [&](const solve::Preconditioner& m, const char* label) {
    std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
    pdx::bench::WallTimer t;
    const auto rep = solve::pcg(a, b, x, m, {.max_iterations = 500});
    const double secs = t.seconds();
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      err = std::max(err, std::abs(x[i] - x_true[i]));
    }
    std::printf("  %-22s %4d iterations  %8.2f ms  max err %.2e  %s\n", label,
                rep.iterations, secs * 1e3, err,
                rep.converged ? "converged" : "NOT CONVERGED");
    return rep.iterations;
  };

  std::printf("\nPCG with different preconditioners:\n");
  run(solve::IdentityPreconditioner{}, "none");
  run(solve::JacobiPreconditioner{a}, "jacobi");
  run(solve::Ilu0Preconditioner{a}, "ilu0 (sequential)");
  run(solve::DoacrossIlu0Preconditioner{pool, a},
      "ilu0 (doacross)");

  std::printf(
      "\nThe sequential and doacross ILU runs take identical iteration\n"
      "counts because the parallel triangular solves are bitwise equal to\n"
      "the sequential ones.\n");
  return 0;
}
