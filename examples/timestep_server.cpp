// timestep_server — the evolving-values serving loop, now through
// solve::Service.
//
// Implicit time integration of a diffusion problem with a time-varying
// coefficient field: every step the operator A(t) = I + dt·K(t) changes
// VALUES while its stencil PATTERN stays fixed. Each step is one
// update_values() — which the service applies as a value-only plan
// refresh (parallel numeric ILU(0) through the persistent FactorPlan +
// packed-stream refresh, never a plan rebuild) — followed by one
// deadline-carrying job for the implicit solve.
//
// Running the loop through the Service instead of a raw BatchDriver buys
// the serving guarantees: the step solve carries a deadline, overload on
// the submission queue follows an explicit backpressure policy, and an
// infrastructure fault would degrade this tenant to the exact serial
// fallback instead of taking the process down (DESIGN.md §15).
//
// Usage: ./examples/timestep_server [--deadline-ms=D]
//                                   [--backpressure=block|shed|reject]
//        (PDX_QUICK=1 shrinks the grid and step count — the CI smoke
//        mode.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchsupport/env.hpp"
#include "benchsupport/timer.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/service.hpp"

namespace gen = pdx::gen;
namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using pdx::index_t;

namespace {

/// A(t) = I + dt·K(t), where K(t) is the base operator with a
/// conductivity modulation that is smooth in time and space and bounded
/// away from flipping a sign, so A(t) stays diagonally dominant.
void assemble(const sp::Csr& base, sp::Csr& a, double dt, double t) {
  for (index_t r = 0; r < base.rows; ++r) {
    for (index_t p = base.row_begin(r); p < base.row_end(r); ++p) {
      const auto k = static_cast<std::size_t>(p);
      a.val[k] = (base.idx[k] == r ? 1.0 : 0.0) +
                 dt * base.val[k] *
                     (1.0 + 0.25 * std::sin(0.0007 * static_cast<double>(k) +
                                            t));
    }
  }
}

/// Backward Euler on a diffusion operator never amplifies the field.
constexpr double kMaxGrowth = 1.01;

}  // namespace

int main(int argc, char** argv) {
  const bool quick = pdx::bench::quick_mode();
  const int grid = quick ? 32 : 64;
  const int steps = quick ? 4 : 12;
  const double dt = 0.35;

  solve::ServiceOptions opts;
  opts.solver.rel_tolerance = 1e-10;
  double deadline_ms = 0.0;  // 0 = none
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--backpressure=", 0) == 0) {
      const std::string v = arg.substr(15);
      if (v == "block") {
        opts.backpressure = solve::BackpressurePolicy::kBlock;
      } else if (v == "shed") {
        opts.backpressure = solve::BackpressurePolicy::kShedOldest;
      } else if (v == "reject") {
        opts.backpressure = solve::BackpressurePolicy::kReject;
      } else {
        std::fprintf(stderr, "unknown backpressure policy: %s\n", v.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const sp::Csr base = gen::five_point(grid, grid);
  sp::Csr a = base;  // pattern fixed for the whole run; values per step
  const index_t n = a.rows;
  assemble(base, a, dt, 0.0);

  rt::ThreadPool pool;  // hardware width
  solve::Service svc(pool, opts);
  pdx::bench::WallTimer build_timer;
  const solve::MatrixId id = svc.register_matrix(a);
  const double register_ms = build_timer.millis();

  std::printf(
      "timestep_server: %lld equations, %u threads, dt=%.2f, register %.1f "
      "ms (plans build lazily), deadline %s\n",
      static_cast<long long>(n), pool.width(), dt, register_ms,
      deadline_ms > 0 ? (std::to_string(deadline_ms) + " ms").c_str()
                      : "none");
  std::printf("%-5s %-9s %-10s %-10s %-9s %-10s %-10s\n", "step", "iters",
              "queue(ms)", "solve(ms)", "degraded", "step(ms)", "max|u|");

  // u evolves under backward Euler: (I + dt K(t)) u_next = u. The rhs of
  // each step is the previous solution — real time-stepping traffic, not
  // a fresh random vector.
  std::vector<double> u(static_cast<std::size_t>(n), 1.0);
  std::vector<double> u_next(static_cast<std::size_t>(n), 0.0);

  for (int s = 1; s <= steps; ++s) {
    pdx::bench::WallTimer step_timer;
    assemble(base, a, dt, dt * s);
    svc.update_values(id, a);  // applied as a value-only refresh

    const solve::JobResult res = svc.solve(id, u, u_next, deadline_ms);
    if (res.outcome != solve::JobOutcome::kSolved) {
      std::printf("step %d: %s — %s\n", s, to_string(res.outcome),
                  res.error.c_str());
      return 1;
    }
    double max_u = 0.0;
    for (const double v : u_next) max_u = std::max(max_u, std::abs(v));
    std::printf("%-5d %-9d %-10.2f %-10.2f %-9s %-10.1f %-10.6f\n", s,
                res.report.iterations, res.queue_ms, res.solve_ms,
                res.degraded ? "yes" : "no", step_timer.millis(), max_u);
    if (!(max_u <= kMaxGrowth)) {
      std::printf("step %d: max|u| = %g exceeds %.2f — the implicit step "
                  "amplified the field — FAIL\n",
                  s, max_u, kMaxGrowth);
      return 1;
    }
    std::swap(u, u_next);
  }

  const solve::ServiceReport rep = svc.report();
  const solve::MatrixInfo mi = svc.matrix_info(id);
  // The first step builds the plans from the step-1 values (a cache
  // miss); each later step's update lands as a value-only refresh on the
  // live plans — 1 symbolic build serving steps-1 refreshes.
  std::printf(
      "\namortization: %llu plan build(s) served %llu value refresh(es) "
      "across %d steps (strategy %s, %s-order walk, breaker %s).\n",
      static_cast<unsigned long long>(rep.cache_misses),
      static_cast<unsigned long long>(rep.value_refreshes), steps,
      pdx::core::to_string(mi.strategy),
      mi.wavefront ? "wavefront" : "source", to_string(mi.breaker));

  if (!svc.shutdown(/*drain_timeout_ms=*/10000.0)) {
    std::printf("shutdown did not drain — FAIL\n");
    return 1;
  }
  if (rep.solved != static_cast<std::uint64_t>(steps)) {
    std::printf("expected %d solved steps, saw %llu — FAIL\n", steps,
                static_cast<unsigned long long>(rep.solved));
    return 1;
  }
  if (rep.cache_misses != 1 ||
      rep.value_refreshes != static_cast<std::uint64_t>(steps - 1)) {
    std::printf("plan did not amortize across the steps — FAIL\n");
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
