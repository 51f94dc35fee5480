// cg.hpp — preconditioned conjugate gradients.
//
// The Krylov context of paper §3.2 / reference [1]: an SPD system solved by
// PCG with an ILU(0) (or Jacobi/identity) preconditioner, where each
// iteration applies the preconditioner — i.e. runs the paper's sparse
// triangular solves.
//
// The recurrence is written once, k systems wide (pcg_lockstep): the
// vectors of the systems still running are the lanes of n-by-k row-major
// strips, and every iteration makes one fused SpMV·p·Ap pass, one fused
// update·r·r pass, one Preconditioner::apply_strip call and per-lane
// r·z and xpby passes, with rho/alpha/beta and the norms kept per lane.
// pcg() is its k = 1 case (DESIGN.md §8).
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
/// b - A x (n entries); pcg_lockstep only reads it.
struct CgSystem {
  std::span<const double> b;
  std::span<double> x;  ///< initial guess in, solution out
  const double* r;
  SolveReport* report;  ///< overwritten with this system's report
};

/// Scratch of pcg_lockstep: grown to the widest call, never shrunk, so
/// steady traffic allocates nothing.
struct CgScratch {
  // n-by-k row-major strips: lane c of row i at i*k + c, one running
  // system per lane.
  std::vector<double> x, r, z, p, ap;
  // Per-lane coefficients and reduction results, k wide.
  std::vector<double> alpha, beta, dots;
  struct Lane {
    std::size_t system = 0;  ///< index into the caller's systems
    double bnorm = 0.0, stop = 0.0, rnorm = 0.0, rho = 0.0;
    bool done = false;  ///< left this iteration; dropped at compaction
  };
  std::vector<Lane> lanes;
  std::vector<std::size_t> keep;  // lanes still running after an iteration
};

/// Lockstep PCG over systems that share A and M: every system runs
/// exactly the recurrence pcg runs alone — same operations, same order —
/// so each one's x and report are bitwise equal to pcg on that system.
/// Each running system is one lane of the scratch strips; a system that
/// converges, breaks down or reaches opts.max_iterations writes its x
/// and leaves, and the strips are compacted in place. Throws
/// std::invalid_argument — before touching any system — when `a` is not
/// square or a system's b or x is shorter than a.rows, or its r or
/// report is null.
void pcg_lockstep(const sparse::Csr& a, std::span<const CgSystem> systems,
                  const Preconditioner& m, const CgOptions& opts,
                  CgScratch& scratch);

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
