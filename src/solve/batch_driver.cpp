#include "solve/batch_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "solve/gmres.hpp"
#include "solve/vec.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

void validate(const BatchDriverOptions& opts) {
  const std::pair<const char*, int> counts[] = {
      {"max_iterations", opts.max_iterations},
      {"max_attempts", opts.max_attempts},
      {"retry_iteration_factor", opts.retry_iteration_factor},
      {"gmres_restart", opts.gmres_restart}};
  for (const auto& [name, value] : counts) {
    if (value < 1) {
      throw std::invalid_argument(std::string("BatchDriverOptions: ") + name +
                                  " must be >= 1");
    }
  }
}

BatchDriver::BatchDriver(rt::ThreadPool& pool, const sparse::Csr& a,
                         const BatchDriverOptions& opts)
    : pool_(&pool),
      a_(&a),
      opts_(opts),
      m_(pool, a,
         sparse::PlanOptions{.nthreads = opts.nthreads,
                             .reorder = opts.reorder,
                             .strategy = opts.strategy,
                             .layout = opts.layout,
                             .calibration_epochs = opts.calibration_epochs,
                             .use_tuning_cache = opts.use_tuning_cache,
                             .stall_budget = opts.stall_budget},
         sparse::FactorPlanOptions{
             .nthreads = opts.nthreads,
             .strategy = opts.factor_strategy,
             .calibration_epochs = opts.calibration_epochs,
             .use_tuning_cache = opts.use_tuning_cache,
             .stall_budget = opts.stall_budget,
             .pivot = {}}) {
  validate(opts);
}

void BatchDriver::enqueue(std::span<const double> b, std::span<double> x) {
  const std::string job = "job " + std::to_string(queue_.size());
  if (static_cast<index_t>(b.size()) < a_->rows ||
      static_cast<index_t>(x.size()) < a_->rows) {
    throw std::invalid_argument(
        "BatchDriver::enqueue: " + job + ": b has " +
        std::to_string(b.size()) + " and x has " + std::to_string(x.size()) +
        " entries but the matrix has " + std::to_string(a_->rows) + " rows");
  }
  if (opts_.screen_nonfinite) {
    for (index_t i = 0; i < a_->rows; ++i) {
      if (!std::isfinite(b[static_cast<std::size_t>(i)])) {
        throw std::invalid_argument("BatchDriver::enqueue: " + job +
                                    ": non-finite b entry at row " +
                                    std::to_string(i));
      }
      if (!std::isfinite(x[static_cast<std::size_t>(i)])) {
        throw std::invalid_argument("BatchDriver::enqueue: " + job +
                                    ": non-finite initial guess at row " +
                                    std::to_string(i));
      }
    }
  }
  queue_.push_back({b, x});
}

void BatchDriver::refactor(const sparse::Csr& a) {
  if (!queue_.empty()) {
    throw std::logic_error(
        "BatchDriver::refactor: queue not empty — drain() the systems "
        "enqueued against the current operator first");
  }
  m_.refactor(a);  // throws on pattern mismatch before any state changes
  a_ = &a;
}

BatchReport BatchDriver::drain() {
  BatchReport rep;
  rep.jobs = queue_.size();
  rep.reports.resize(queue_.size());
  if (queue_.empty()) return rep;

  const rt::DispatchProbe dispatches(*pool_);
  const std::uint64_t plan_solves0 = m_.plan().solves();

  const index_t n = a_->rows;
  const index_t k = static_cast<index_t>(queue_.size());

  // Admission screen: r_j = b_j - A x_j for every queued system, with
  // spmv itself, so the screen's convergence decision coincides bitwise
  // with the one pcg/bicgstab would make on their own initial residual.
  // One product per job per drain, on the calling thread.
  if (screen_r_.size() < static_cast<std::size_t>(n * k)) {
    screen_r_.resize(static_cast<std::size_t>(n * k));
  }
  for (index_t j = 0; j < k; ++j) {
    sparse::spmv(*a_, queue_[static_cast<std::size_t>(j)].x,
                 std::span<double>(screen_r_.data() + j * n,
                                   static_cast<std::size_t>(n)));
  }

  std::vector<index_t> live;
  live.reserve(queue_.size());
  for (index_t j = 0; j < k; ++j) {
    const Job& job = queue_[static_cast<std::size_t>(j)];
    double* rj = screen_r_.data() + j * n;
    for (index_t i = 0; i < n; ++i) {
      rj[i] = job.b[static_cast<std::size_t>(i)] - rj[i];
    }
    // Norms over the same spans pcg/bicgstab use (the full b span, the
    // n-sized residual), so the screen's verdict and report agree with
    // the single-solve path even for oversized caller spans.
    const double bnorm = norm2(job.b);
    const double rnorm = norm2(std::span<const double>(
        rj, static_cast<std::size_t>(n)));
    const double stop = opts_.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);
    if (rnorm <= stop) {
      // Same answer (and same report) the Krylov methods produce when the
      // initial guess already meets the tolerance: x untouched, zero
      // iterations.
      SolveReport& out = rep.reports[static_cast<std::size_t>(j)];
      out.converged = true;
      out.iterations = 0;
      out.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
      if (opts_.record_history) {
        out.residual_history.push_back(out.final_relative_residual);
      }
      ++rep.screened;
    } else {
      live.push_back(j);
    }
  }

  // First attempt. kCg runs every live system in lockstep, one lane of
  // a shared strip each: one strip SpMV and one apply_strip per
  // iteration over the systems still running, each bitwise equal to pcg
  // alone (pcg_lockstep). BiCGSTAB and GMRES run job by job, every
  // application still through m_'s plan.
  if (opts_.method == KrylovMethod::kCg) {
    cg_systems_.clear();
    for (index_t j : live) {
      const Job& job = queue_[static_cast<std::size_t>(j)];
      cg_systems_.push_back({job.b, job.x, screen_r_.data() + j * n,
                             &rep.reports[static_cast<std::size_t>(j)]});
    }
    const CgOptions copts = cg_options(opts_.max_iterations);
    rep.lane_groups = lane_groups(cg_systems_.size());
    if (cg_scratch_.size() < rep.lane_groups) {
      cg_scratch_.resize(rep.lane_groups);
    }
    if (rep.lane_groups == 1) {
      pcg_lockstep(*a_, cg_systems_, m_, copts, cg_scratch_[0]);
    } else {
      // Lane groups: each member runs its contiguous share of the
      // systems as one lockstep solve through the settled serial plan's
      // reentrant solve_strip. Lanes are independent and every lane
      // kernel is elementwise, so any partition is bitwise identical to
      // the single strip.
      const std::span<const CgSystem> all(cg_systems_);
      pool_->parallel_region(rep.lane_groups, [&](unsigned g, unsigned ng) {
        const rt::IterRange r =
            rt::static_block_range(static_cast<index_t>(all.size()), g, ng);
        pcg_lockstep(*a_,
                     all.subspan(static_cast<std::size_t>(r.begin),
                                 static_cast<std::size_t>(r.size())),
                     m_, copts, cg_scratch_[g]);
      });
    }
  } else {
    for (index_t j : live) {
      const Job& job = queue_[static_cast<std::size_t>(j)];
      rep.reports[static_cast<std::size_t>(j)] =
          run_attempt(opts_.method, job.b, job.x, opts_.max_iterations);
    }
  }

  // Retry ladder (DESIGN.md §12) for the jobs the first attempt left
  // unconverged: attempt 2 widens the iteration budget on the same
  // method, attempts 3+ escalate kCg → kBicgstab → kGmres, every attempt
  // warm-started from the previous one's x.
  for (index_t j : live) {
    const Job& job = queue_[static_cast<std::size_t>(j)];
    SolveReport& out = rep.reports[static_cast<std::size_t>(j)];
    KrylovMethod method = opts_.method;
    int attempt = 1;
    while (!out.converged && attempt < opts_.max_attempts) {
      if (attempt >= 2) {
        switch (method) {
          case KrylovMethod::kCg:
            method = KrylovMethod::kBicgstab;
            break;
          case KrylovMethod::kBicgstab:
            method = KrylovMethod::kGmres;
            break;
          case KrylovMethod::kGmres:
            break;  // top of the ladder: re-run at the widened budget
        }
      }
      ++attempt;
      out = run_attempt(method, job.b, job.x,
                        opts_.max_iterations * opts_.retry_iteration_factor);
    }
    out.attempts = attempt;
    if (attempt > 1) ++rep.retried;
    if (out.breakdown) ++rep.breakdowns;
  }

  for (const SolveReport& sr : rep.reports) {
    if (sr.converged) ++rep.converged;
    rep.total_iterations += static_cast<std::uint64_t>(sr.iterations);
  }
  rep.precond_solves = m_.plan().solves() - plan_solves0;
  rep.pool_dispatches = dispatches.delta();
  rep.degraded_serial = m_.degraded();
  queue_.clear();
  return rep;
}

unsigned BatchDriver::lane_groups(std::size_t live) const {
  const sparse::TrisolvePlan& plan = m_.plan();
  if (!plan.settled() ||
      plan.strategy() != sparse::ExecutionStrategy::kSerial) {
    return 1;
  }
  // Capped by the plan's region width, not the pool's, so a plan pinned
  // to one thread (the service's exact-serial fallback) stays on one.
  const std::size_t g = std::min<std::size_t>(
      plan.nthreads(),
      live / static_cast<std::size_t>(sparse::kernels::kLaneMin));
  return g >= 2 ? static_cast<unsigned>(g) : 1;
}

CgOptions BatchDriver::cg_options(int max_iterations) const {
  CgOptions o;
  o.max_iterations = max_iterations;
  o.rel_tolerance = opts_.rel_tolerance;
  o.record_history = opts_.record_history;
  return o;
}

SolveReport BatchDriver::run_attempt(KrylovMethod method,
                                     std::span<const double> b,
                                     std::span<double> x,
                                     int max_iterations) {
  switch (method) {
    case KrylovMethod::kCg:
      return pcg(*a_, b, x, m_, cg_options(max_iterations));
    case KrylovMethod::kBicgstab: {
      BicgstabOptions o;
      o.max_iterations = max_iterations;
      o.rel_tolerance = opts_.rel_tolerance;
      o.record_history = opts_.record_history;
      return bicgstab(*a_, b, x, m_, o);
    }
    case KrylovMethod::kGmres: {
      GmresOptions o;
      o.restart = opts_.gmres_restart;
      o.max_iterations = max_iterations;
      o.rel_tolerance = opts_.rel_tolerance;
      o.record_history = opts_.record_history;
      return gmres(*a_, b, x, m_, o);
    }
  }
  throw std::logic_error("BatchDriver: unknown Krylov method");
}

}  // namespace pdx::solve
