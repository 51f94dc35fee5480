#include "solve/precond.hpp"

#include <numeric>
#include <stdexcept>

#include "sparse/permute.hpp"
#include "sparse/trisolve.hpp"
#include "solve/vec.hpp"

namespace pdx::solve {

void Preconditioner::apply_strip(index_t n, const double* r, double* z,
                                 index_t k) const {
  const std::size_t len = static_cast<std::size_t>(n);
  if (k == 1) {
    apply({r, len}, {z, len});
    return;
  }
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<double> rc(len), zc(len);
  for (std::size_t c = 0; c < kk; ++c) {
    for (std::size_t i = 0; i < len; ++i) rc[i] = r[i * kk + c];
    apply(rc, zc);
    for (std::size_t i = 0; i < len; ++i) z[i * kk + c] = zc[i];
  }
}

JacobiPreconditioner::JacobiPreconditioner(const sparse::Csr& a) {
  if (a.rows != a.cols) throw std::invalid_argument("jacobi: not square");
  inv_diag_.resize(static_cast<std::size_t>(a.rows));
  for (index_t i = 0; i < a.rows; ++i) {
    const double d = a.at(i, i);
    if (d == 0.0) throw std::invalid_argument("jacobi: zero diagonal");
    inv_diag_[static_cast<std::size_t>(i)] = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(std::span<const double> r,
                                 std::span<double> z) const {
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
    z[i] = r[i] * inv_diag_[i];
  }
}

Ilu0Preconditioner::Ilu0Preconditioner(const sparse::Csr& a)
    : f_(sparse::ilu0(a)), tmp_(static_cast<std::size_t>(a.rows)) {}

void Ilu0Preconditioner::apply(std::span<const double> r,
                               std::span<double> z) const {
  sparse::trisolve_lower_seq(f_.l, r, tmp_);
  sparse::trisolve_upper_seq(f_.u, tmp_, z);
}

DoacrossIlu0Preconditioner::DoacrossIlu0Preconditioner(
    rt::ThreadPool& pool, const sparse::Csr& a,
    const sparse::PlanOptions& plan_opts,
    const sparse::FactorPlanOptions& factor_opts)
    : pool_(&pool),
      factor_opts_(factor_opts),
      f_(sparse::ilu0(a)),
      plan_(pool, f_.l, f_.u, plan_opts) {}

void DoacrossIlu0Preconditioner::refactor(const sparse::Csr& a) {
  // Symbolic phase, once per pattern: scatter maps, diagonal positions,
  // the doacross schedule of the elimination, strategy selection. Built
  // lazily into a local so a first refactor with the WRONG pattern — the
  // factorize() below validates `a`'s plan against the ctor matrix's
  // factors — throws without retaining a plan for the wrong pattern.
  std::unique_ptr<sparse::FactorPlan> fresh;
  sparse::FactorPlan* fp = factor_plan_.get();
  if (!fp) {
    fresh = std::make_unique<sparse::FactorPlan>(*pool_, a, factor_opts_);
    fresh->set_fault_injector(injector_);
    fp = fresh.get();
  }
  const sparse::FactorStats fs = fp->factorize(a, f_);
  if (fresh) factor_plan_ = std::move(fresh);
  plan_.record_factorization(fs.factor_seconds * 1e3);
  plan_.refresh_values(f_);
}

void DoacrossIlu0Preconditioner::set_fault_injector(
    rt::FaultInjector* injector) noexcept {
  injector_ = injector;
  plan_.set_fault_injector(injector);
  if (factor_plan_) factor_plan_->set_fault_injector(injector);
}

void DoacrossIlu0Preconditioner::apply_seq(std::span<const double> r,
                                           std::span<double> z) const {
  // Graceful degradation (DESIGN.md §12): the parallel plan is poisoned
  // but the FACTORS are intact, so the sequential Fig. 7 loops — the very
  // arithmetic the plan is bitwise-gated against — keep serving correct
  // answers at sequential speed until the caller rebuilds. The scratch
  // is per call: lane groups may degrade concurrently.
  std::vector<double> tmp(r.size());
  sparse::trisolve_lower_seq(f_.l, r, tmp);
  sparse::trisolve_upper_seq(f_.u, tmp, z);
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

void DoacrossIlu0Preconditioner::apply(std::span<const double> r,
                                       std::span<double> z) const {
  if (!plan_.poisoned()) {
    try {
      plan_.solve(r, z);
      return;
    } catch (...) {
      // The faulting solve left z garbage. If the fault poisoned the
      // plan, recompute this very application sequentially; anything
      // else (bad arguments, ...) is the caller's problem.
      if (!plan_.poisoned()) throw;
    }
  }
  apply_seq(r, z);
}

void DoacrossIlu0Preconditioner::apply_strip(index_t n, const double* r,
                                             double* z, index_t k) const {
  if (n != plan_.rows()) {
    throw std::invalid_argument(
        "DoacrossIlu0Preconditioner::apply_strip: strip length differs "
        "from the plan's row count");
  }
  if (!plan_.poisoned()) {
    const std::size_t len =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
    try {
      plan_.solve_strip({r, len}, {z, len}, k);
      return;
    } catch (...) {
      if (!plan_.poisoned()) throw;
    }
  }
  // Lane by lane through apply(), which serves a poisoned plan from the
  // sequential loops.
  Preconditioner::apply_strip(n, r, z, k);
}

}  // namespace pdx::solve
