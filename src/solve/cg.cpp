#include "solve/cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "solve/vec.hpp"
#include "sparse/kernels.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

namespace {

double relative(double rnorm, double bnorm) {
  return bnorm > 0 ? rnorm / bnorm : rnorm;
}

/// Move lane keep[j] of an n-by-k strip to lane j of an n-by-keep.size()
/// strip, in place. No element moves past its source (j <= keep[j] and
/// the new width is at most k), so one ascending sweep never overwrites
/// a value it has yet to read.
void compact(std::vector<double>& s, std::size_t n, std::size_t k,
             const std::vector<std::size_t>& keep) {
  const std::size_t w = keep.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < w; ++j) s[i * w + j] = s[i * k + keep[j]];
  }
}

void validate(const sparse::Csr& a, std::span<const CgSystem> systems) {
  if (a.rows != a.cols) {
    throw std::invalid_argument("pcg_lockstep: matrix not square");
  }
  const std::size_t n = static_cast<std::size_t>(a.rows);
  for (std::size_t c = 0; c < systems.size(); ++c) {
    const CgSystem& sys = systems[c];
    const char* bad = sys.b.size() < n   ? "b is shorter than the matrix"
                      : sys.x.size() < n ? "x is shorter than the matrix"
                      : !sys.r           ? "null residual"
                      : !sys.report      ? "null report"
                                         : nullptr;
    if (bad) {
      throw std::invalid_argument("pcg_lockstep: system " +
                                  std::to_string(c) + ": " + bad);
    }
  }
}

}  // namespace

void pcg_lockstep(const sparse::Csr& a, std::span<const CgSystem> systems,
                  const Preconditioner& m, const CgOptions& opts,
                  CgScratch& s) {
  validate(a, systems);
  const std::size_t n = static_cast<std::size_t>(a.rows);

  // Initial residual check: a system whose guess already meets the
  // tolerance never enters the recurrence.
  s.lanes.clear();
  for (std::size_t c = 0; c < systems.size(); ++c) {
    SolveReport& rep = *systems[c].report;
    rep = SolveReport{};
    CgScratch::Lane ln;
    ln.system = c;
    ln.bnorm = norm2(systems[c].b);
    ln.stop = opts.rel_tolerance * (ln.bnorm > 0.0 ? ln.bnorm : 1.0);
    ln.rnorm = norm2({systems[c].r, n});
    rep.final_relative_residual = relative(ln.rnorm, ln.bnorm);
    if (opts.record_history) {
      rep.residual_history.push_back(rep.final_relative_residual);
    }
    if (ln.rnorm <= ln.stop) {
      rep.converged = true;
    } else if (opts.max_iterations > 0) {
      s.lanes.push_back(ln);
    }
  }
  std::size_t k = s.lanes.size();
  if (k == 0) return;
  if (s.x.size() < n * k) {
    for (auto* v : {&s.x, &s.r, &s.z, &s.p, &s.ap}) v->resize(n * k);
  }
  if (s.dots.size() < k) {
    for (auto* v : {&s.alpha, &s.beta, &s.dots}) v->resize(k);
  }
  for (std::size_t l = 0; l < k; ++l) {
    const CgSystem& sys = systems[s.lanes[l].system];
    for (std::size_t i = 0; i < n; ++i) {
      s.x[i * k + l] = sys.x[i];
      s.r[i * k + l] = sys.r[i];
    }
  }
  const auto write_x = [&](std::size_t l) {
    const std::span<double> x = systems[s.lanes[l].system].x;
    for (std::size_t i = 0; i < n; ++i) x[i] = s.x[i * k + l];
  };

  // Every strip pass is one lane-kernel call, at every width down to one
  // lane: each lane runs exactly sparse::spmv and the solve/vec.hpp loops
  // (DESIGN.md §8).
  const sparse::kernels::LaneOps& ops = sparse::kernels::dispatched_ops();
  const sparse::kernels::CsrRef csr{a.ptr.data(), a.idx.data(), a.val.data(),
                                    a.rows};
  const auto width = [&k] { return static_cast<index_t>(k); };
  // z = M⁻¹ r, p = z, rho = r·z
  m.apply_strip(a.rows, s.r.data(), s.z.data(), width());
  std::copy_n(s.z.begin(), n * k, s.p.begin());
  ops.lane_dot(s.dots.data(), s.r.data(), s.z.data(), a.rows, width());
  for (std::size_t l = 0; l < k; ++l) s.lanes[l].rho = s.dots[l];

  std::vector<std::size_t>& keep = s.keep;
  for (int it = 0;; ++it) {
    // ap = A p and p·ap in one pass; alpha = rho / p·ap
    ops.spmv_dot(csr, s.p.data(), s.ap.data(), s.dots.data(), width());
    for (std::size_t l = 0; l < k; ++l) {
      CgScratch::Lane& ln = s.lanes[l];
      const double denom = s.dots[l];
      if (denom == 0.0 || !std::isfinite(denom)) {
        // Leaves with the x from before this iteration's update.
        SolveReport& rep = *systems[ln.system].report;
        rep.breakdown = true;
        rep.breakdown_reason = "p·Ap denominator zero or non-finite";
        write_x(l);
        ln.done = true;
        s.alpha[l] = 0.0;
        continue;
      }
      s.alpha[l] = ln.rho / denom;
    }
    // x += alpha p, r -= alpha ap and r·r in one pass
    ops.cg_update(s.x.data(), s.r.data(), s.alpha.data(), s.p.data(),
                  s.ap.data(), s.dots.data(), a.rows, width());
    keep.clear();
    for (std::size_t l = 0; l < k; ++l) {
      CgScratch::Lane& ln = s.lanes[l];
      if (ln.done) continue;
      SolveReport& rep = *systems[ln.system].report;
      ln.rnorm = std::sqrt(s.dots[l]);
      rep.iterations = it + 1;
      rep.final_relative_residual = relative(ln.rnorm, ln.bnorm);
      if (opts.record_history) {
        rep.residual_history.push_back(rep.final_relative_residual);
      }
      if (ln.rnorm <= ln.stop) {
        rep.converged = true;
      } else if (it + 1 < opts.max_iterations) {
        keep.push_back(l);
        continue;
      }
      write_x(l);
    }
    if (keep.size() < k) {
      if (keep.empty()) return;
      // z and ap are recomputed before they are next read.
      for (auto* v : {&s.x, &s.r, &s.p}) compact(*v, n, k, keep);
      for (std::size_t j = 0; j < keep.size(); ++j) {
        s.lanes[j] = s.lanes[keep[j]];
      }
      k = keep.size();
      s.lanes.resize(k);
    }

    // z = M⁻¹ r; beta = r·z / rho; p = z + beta p
    m.apply_strip(a.rows, s.r.data(), s.z.data(), width());
    ops.lane_dot(s.dots.data(), s.r.data(), s.z.data(), a.rows, width());
    for (std::size_t l = 0; l < k; ++l) {
      s.beta[l] = s.dots[l] / s.lanes[l].rho;
      s.lanes[l].rho = s.dots[l];
    }
    ops.lane_xpby(s.p.data(), s.beta.data(), s.z.data(), a.rows, width());
  }
}

SolveReport pcg(const sparse::Csr& a, std::span<const double> b,
                std::span<double> x, const Preconditioner& m,
                const CgOptions& opts) {
  if (a.rows != a.cols) throw std::invalid_argument("pcg: matrix not square");
  const std::size_t n = static_cast<std::size_t>(a.rows);
  if (b.size() < n || x.size() < n) {
    throw std::invalid_argument("pcg: vector size mismatch");
  }

  // r = b - A x
  std::vector<double> r(n);
  sparse::spmv(a, x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  SolveReport rep;
  CgScratch scratch;
  const CgSystem sys{b, x, r.data(), &rep};
  pcg_lockstep(a, {&sys, 1}, m, opts, scratch);
  return rep;
}

SolveReport pcg(rt::ThreadPool& pool, const sparse::Csr& a,
                std::span<const double> b, std::span<double> x,
                const CgOptions& opts) {
  const DoacrossIlu0Preconditioner m(
      pool, a, sparse::PlanOptions{.strategy = opts.strategy});
  return pcg(a, b, x, m, opts);
}

}  // namespace pdx::solve
