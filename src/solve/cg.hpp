// cg.hpp — preconditioned conjugate gradients.
//
// The Krylov context of paper §3.2 / reference [1]: an SPD system solved by
// PCG with an ILU(0) (or Jacobi/identity) preconditioner, where each
// iteration applies the preconditioner — i.e. runs the paper's sparse
// triangular solves.
//
// The recurrence is written once, k systems wide (pcg_lockstep): every
// iteration makes one SpMV pass and one Preconditioner::apply_batch call
// over the systems still running, with rho/alpha/beta and the norms kept
// per system. pcg() is its k = 1 case (DESIGN.md §8).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "solve/precond.hpp"
#include "sparse/csr.hpp"

namespace pdx::solve {

struct SolveReport {
  bool converged = false;
  int iterations = 0;
  double final_relative_residual = 0.0;
  std::vector<double> residual_history;  ///< relative residual per iteration
  /// True when the iteration stopped on a numerical breakdown (a zero or
  /// non-finite scalar in the recurrence) rather than convergence or the
  /// iteration cap. Previously a silent early exit; callers deciding
  /// whether to retry or escalate need the distinction (DESIGN.md §12).
  bool breakdown = false;
  /// Which scalar broke, when breakdown is true (empty otherwise).
  std::string breakdown_reason;
  /// Solve attempts the caller made for this answer (1 unless a retry
  /// ladder such as BatchDriver's re-ran or escalated the method).
  int attempts = 1;
};

struct CgOptions {
  int max_iterations = 1000;
  double rel_tolerance = 1e-10;
  bool record_history = true;
  /// Trisolve strategy of the ILU(0) preconditioner built by the
  /// pool-taking overload (ignored when a Preconditioner is supplied).
  /// Auto lets the plan measure the factor and pick (DESIGN.md §9).
  sparse::ExecutionStrategy strategy = sparse::ExecutionStrategy::kAuto;
};

/// One system of a lockstep solve. `r` holds the initial residual
/// b - A x (n entries) on entry and is the system's residual scratch after.
struct CgSystem {
  std::span<const double> b;
  std::span<double> x;  ///< initial guess in, solution out
  double* r;
  SolveReport* report;  ///< overwritten with this system's report
};

/// Scratch of pcg_lockstep: grown to the widest call, never shrunk, so
/// steady traffic allocates nothing.
struct CgScratch {
  std::vector<double> z, p, ap;  // n-by-k, column-major
  struct Column {
    double bnorm = 0.0, stop = 0.0, rnorm = 0.0, rho = 0.0;
  };
  std::vector<Column> cols;
  std::vector<std::size_t> active;
  std::vector<const double*> in;
  std::vector<double*> out;
};

/// Lockstep PCG over systems that share A and M: every system runs
/// exactly the recurrence pcg runs alone — same operations, same order —
/// so each one's x and report are bitwise equal to pcg on that system.
/// Systems leave the lockstep when they converge, break down or reach
/// opts.max_iterations. With two or more systems running the SpMV pass is
/// spmv_batch_parallel on `pool` over `nthreads` (0 = pool width), so
/// more than one system needs a pool; a lone system's SpMV is sequential,
/// as in pcg.
void pcg_lockstep(const sparse::Csr& a, std::span<const CgSystem> systems,
                  const Preconditioner& m, const CgOptions& opts,
                  CgScratch& scratch, rt::ThreadPool* pool = nullptr,
                  unsigned nthreads = 0);

/// Solve A x = b for SPD A; x holds the initial guess on entry and the
/// solution on exit.
SolveReport pcg(const sparse::Csr& a, std::span<const double> b,
                std::span<double> x, const Preconditioner& m,
                const CgOptions& opts = {});

/// Convenience entry point owning its preconditioner: factors `a` with
/// ILU(0) and applies it through a strategy-polymorphic TrisolvePlan
/// (opts.strategy, default Auto). Bitwise identical to calling pcg with a
/// DoacrossIlu0Preconditioner built the same way.
SolveReport pcg(rt::ThreadPool& pool, const sparse::Csr& a,
                std::span<const double> b, std::span<double> x,
                const CgOptions& opts = {});

}  // namespace pdx::solve
