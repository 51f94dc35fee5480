#include "solve/cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "solve/vec.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

namespace {

double relative(double rnorm, double bnorm) {
  return bnorm > 0 ? rnorm / bnorm : rnorm;
}

/// The vector stages of one lockstep iteration over n-by-k strips. Lane
/// by lane they are the solve/vec.hpp loops and sparse::spmv; a one-lane
/// strip is a plain vector and runs exactly those, with no lane-kernel
/// call on the path pcg alone takes.
struct Strips {
  const sparse::kernels::LaneOps& ops;
  std::size_t n, k;

  index_t rows() const { return static_cast<index_t>(n); }
  index_t lanes() const { return static_cast<index_t>(k); }
  std::span<const double> in(const std::vector<double>& v) const {
    return {v.data(), n};
  }
  std::span<double> out(std::vector<double>& v) const {
    return {v.data(), n};
  }

  /// out[c] = lane c of a · lane c of b
  void dot(const std::vector<double>& a, const std::vector<double>& b,
           double* res) const {
    if (k == 1) {
      res[0] = solve::dot(in(a), in(b));
    } else {
      ops.lane_dot(res, a.data(), b.data(), rows(), lanes());
    }
  }
  /// y += alpha x, lane by lane
  void axpy(const double* alpha, const std::vector<double>& x,
            std::vector<double>& y) const {
    if (k == 1) {
      solve::axpy(alpha[0], in(x), out(y));
    } else {
      ops.lane_axpy(y.data(), alpha, x.data(), rows(), lanes());
    }
  }
  /// y = x + beta y, lane by lane
  void xpby(const std::vector<double>& x, const double* beta,
            std::vector<double>& y) const {
    if (k == 1) {
      solve::xpby(in(x), beta[0], out(y));
    } else {
      ops.lane_xpby(y.data(), beta, x.data(), rows(), lanes());
    }
  }
  /// y = A x (a one-lane strip runs spmv itself)
  void spmv(const sparse::Csr& a, const std::vector<double>& x,
            std::vector<double>& y) const {
    sparse::spmv_strip(a, x.data(), y.data(), lanes(), ops);
  }
};

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
    for (auto* v : {&s.alpha, &s.neg_alpha, &s.beta, &s.dots}) v->resize(k);
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

  Strips st{sparse::kernels::dispatched_ops(), n, k};
  // z = M⁻¹ r, p = z, rho = r·z
  m.apply_strip(a.rows, s.r.data(), s.z.data(), static_cast<index_t>(k));
  std::copy_n(s.z.begin(), n * k, s.p.begin());
  st.dot(s.r, s.z, s.dots.data());
  for (std::size_t l = 0; l < k; ++l) s.lanes[l].rho = s.dots[l];

  std::vector<std::size_t>& keep = s.keep;
  for (int it = 0;; ++it) {
    // ap = A p; alpha = rho / p·ap
    st.spmv(a, s.p, s.ap);
    st.dot(s.p, s.ap, s.dots.data());
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
        s.alpha[l] = s.neg_alpha[l] = 0.0;
        continue;
      }
      s.alpha[l] = ln.rho / denom;
      s.neg_alpha[l] = -s.alpha[l];
    }
    // x += alpha p; r -= alpha ap
    st.axpy(s.alpha.data(), s.p, s.x);
    st.axpy(s.neg_alpha.data(), s.ap, s.r);

    st.dot(s.r, s.r, s.dots.data());
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
      st.k = k;
    }

    // z = M⁻¹ r; beta = r·z / rho; p = z + beta p
    m.apply_strip(a.rows, s.r.data(), s.z.data(), static_cast<index_t>(k));
    st.dot(s.r, s.z, s.dots.data());
    for (std::size_t l = 0; l < k; ++l) {
      s.beta[l] = s.dots[l] / s.lanes[l].rho;
      s.lanes[l].rho = s.dots[l];
    }
    st.xpby(s.z, s.beta.data(), s.p);
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
  const DoacrossIlu0Preconditioner m(pool, a, /*reorder=*/true,
                                     /*nthreads=*/0, opts.strategy);
  return pcg(a, b, x, m, opts);
}

}  // namespace pdx::solve
