// precond.hpp — preconditioners for the Krylov solvers.
//
// The triangular solves of paper §3.2 exist because ILU-preconditioned
// Krylov methods apply M⁻¹ = (LU)⁻¹ every iteration — "the solution of
// these sparse triangular systems accounts for a large fraction of the
// sequential execution time of linear solvers that use Krylov methods"
// (citing [1]). Ilu0Preconditioner::apply is exactly two Fig. 7 loops;
// DoacrossIlu0Preconditioner runs the lower one through the preprocessed
// doacross executor.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/factor_plan.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/trisolve_plan.hpp"

namespace pdx::solve {

/// z = M⁻¹ r. Implementations must tolerate aliasing-free spans of equal
/// length n.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;
  /// z = M⁻¹ r lane by lane for row-major n-by-k strips (lane c of row
  /// i at i*k + c) — the hook the lockstep CG (pcg_lockstep) calls once
  /// per iteration. The default applies lane by lane through a gathered
  /// column; every lane must equal apply() on that lane bitwise. r and z
  /// must not alias.
  virtual void apply_strip(index_t n, const double* r, double* z,
                           index_t k) const;
  virtual const char* name() const = 0;
};

class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const double> r, std::span<double> z) const override {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i];
  }
  const char* name() const override { return "identity"; }
};

/// Diagonal (Jacobi) scaling: z_i = r_i / a_ii.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const sparse::Csr& a);
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

/// ILU(0): z = U⁻¹ (L⁻¹ r), both solves sequential (Fig. 7 loops).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const sparse::Csr& a);
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "ilu0"; }

  const sparse::IluFactors& factors() const { return f_; }

 private:
  sparse::IluFactors f_;
  mutable std::vector<double> tmp_;
};

/// ILU(0) with both triangular solves executed by a persistent
/// TrisolvePlan: strategy selection, doconsider reorderings, epoch-reset
/// flag tables, barrier, wait counters and region functors are built once
/// per factorization, so every apply() — i.e. every Krylov iteration — is
/// at most ONE fused pool fork/join (zero for a serial-strategy plan)
/// with zero heap allocation and an O(1) flag reset. The default strategy
/// is Auto: the plan measures the factor's dependence structure and asks
/// core::advise_schedule which executor to instantiate (DESIGN.md §9).
/// Results are bitwise identical to Ilu0Preconditioner under every
/// strategy.
class DoacrossIlu0Preconditioner final : public Preconditioner {
 public:
  /// `plan_opts` configures the solve plan verbatim (width, strategy,
  /// layout, calibration budget, tuning cache, stall watchdog);
  /// `factor_opts` configures the persistent FactorPlan the first
  /// refactor() builds. The default solve plan is Auto: it calibrates —
  /// races every strategy on the first applications, locks in the
  /// measured winner, and consults the process-wide tuning cache
  /// (DESIGN.md §13) — and its layout follows the resolved strategy
  /// (kCsrView for serial plans, packed execution-ordered first-touched
  /// slabs otherwise; DESIGN.md §10). The solve layer's calibration
  /// knobs (BatchDriverOptions) plumb through here.
  DoacrossIlu0Preconditioner(
      rt::ThreadPool& pool, const sparse::Csr& a,
      const sparse::PlanOptions& plan_opts =
          {.strategy = sparse::ExecutionStrategy::kAuto},
      const sparse::FactorPlanOptions& factor_opts = {});
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "ilu0-doacross"; }

  /// Strip application in ONE pool dispatch through the shared plan
  /// (TrisolvePlan::solve_strip); a one-lane strip is the fused
  /// single-RHS solve. `n` must equal the plan's row count. Reentrant
  /// when the plan is settled serial, as solve_strip is — the serial
  /// fallback included, which keeps its scratch per call.
  void apply_strip(index_t n, const double* r, double* z,
                   index_t k) const override;

  /// Re-factorize for new matrix VALUES over the ctor matrix's pattern —
  /// the time-stepping hot path (DESIGN.md §11). The first call builds a
  /// persistent sparse::FactorPlan (symbolic phase, once); every call
  /// then runs the parallel zero-allocation numeric factorization into
  /// the existing factors and refreshes the solve plan's packed value
  /// streams in place (TrisolvePlan::refresh_values) — no schedules,
  /// flag tables or layouts are rebuilt. After refactor(), apply() is
  /// bitwise identical to a freshly constructed preconditioner over `a`.
  /// Throws std::invalid_argument if `a`'s pattern differs from the
  /// ctor matrix's. A zero/invalid pivot throws std::runtime_error AND
  /// leaves the factors holding the failed step's (contaminated) values
  /// — do not apply() until a subsequent refactor with healthy values
  /// succeeds (it rewrites every value and fully recovers the object).
  void refactor(const sparse::Csr& a);

  const sparse::IluFactors& factors() const { return f_; }
  const sparse::TrisolvePlan& plan() const { return plan_; }
  /// The persistent factorization plan (nullptr before the first
  /// refactor()).
  const sparse::FactorPlan* factor_plan() const { return factor_plan_.get(); }

  /// True once the parallel plan was poisoned by an in-region fault and
  /// apply() degraded to the sequential Fig. 7 loops (DESIGN.md §12).
  /// The factors themselves are intact, so answers stay bitwise correct —
  /// only the parallel executor is lost until the object is rebuilt.
  bool degraded() const noexcept { return plan_.poisoned(); }
  /// Columns served by the sequential fallback since construction.
  std::uint64_t serial_fallbacks() const noexcept {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  /// Attach a fault-injection harness (tests only); forwarded to the
  /// solve plan and to the factor plan once refactor() builds it.
  void set_fault_injector(rt::FaultInjector* injector) noexcept;

 private:
  void apply_seq(std::span<const double> r, std::span<double> z) const;

  rt::ThreadPool* pool_;
  sparse::FactorPlanOptions factor_opts_;  // for the lazy FactorPlan
  sparse::IluFactors f_;        // must outlive plan_ (declared first)
  mutable sparse::TrisolvePlan plan_;
  std::unique_ptr<sparse::FactorPlan> factor_plan_;  // built on 1st refactor
  rt::FaultInjector* injector_ = nullptr;
  mutable std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace pdx::solve
