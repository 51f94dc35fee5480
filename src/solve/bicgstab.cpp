#include "solve/bicgstab.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "solve/vec.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

SolveReport bicgstab(const sparse::Csr& a, std::span<const double> b,
                     std::span<double> x, const Preconditioner& m,
                     const BicgstabOptions& opts) {
  if (a.rows != a.cols) throw std::invalid_argument("bicgstab: not square");
  const std::size_t n = static_cast<std::size_t>(a.rows);
  if (b.size() < n || x.size() < n) {
    throw std::invalid_argument("bicgstab: vector size mismatch");
  }

  std::vector<double> r(n), r0(n), p(n), v(n), s(n), t(n), phat(n), shat(n);

  sparse::spmv(a, x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  copy(r, r0);  // shadow residual

  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  SolveReport rep;
  double rnorm = norm2(r);
  if (opts.record_history) {
    rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
  }
  if (rnorm <= stop) {
    rep.converged = true;
    rep.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
    return rep;
  }

  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;
  fill(p, 0.0);
  fill(v, 0.0);

  for (int it = 0; it < opts.max_iterations; ++it) {
    const double rho = dot(r0, r);
    if (rho == 0.0 || !std::isfinite(rho)) {
      rep.breakdown = true;
      rep.breakdown_reason = "rho = (r0, r) zero or non-finite";
      break;
    }

    if (it == 0) {
      copy(r, p);
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      // p = r + beta (p - omega v)
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }

    m.apply(p, phat);
    sparse::spmv(a, phat, v);
    const double denom = dot(r0, v);
    if (denom == 0.0 || !std::isfinite(denom)) {
      rep.breakdown = true;
      rep.breakdown_reason = "(r0, A p^) denominator zero or non-finite";
      break;
    }
    alpha = rho / denom;

    // s = r - alpha v
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    rnorm = norm2(s);
    if (rnorm <= stop) {
      axpy(alpha, phat, x);
      rep.iterations = it + 1;
      if (opts.record_history) {
        rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
      }
      rep.converged = true;
      break;
    }

    m.apply(s, shat);
    sparse::spmv(a, shat, t);
    const double tt = dot(t, t);
    if (tt == 0.0) {
      rep.breakdown = true;
      rep.breakdown_reason = "(t, t) is zero";
      break;
    }
    omega = dot(t, s) / tt;
    if (omega == 0.0 || !std::isfinite(omega)) {
      rep.breakdown = true;
      rep.breakdown_reason = "omega zero or non-finite";
      break;
    }

    // x += alpha phat + omega shat;  r = s - omega t
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }

    rnorm = norm2(r);
    rep.iterations = it + 1;
    if (opts.record_history) {
      rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
    }
    if (rnorm <= stop) {
      rep.converged = true;
      break;
    }
    rho_prev = rho;
  }

  rep.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
  return rep;
}

SolveReport bicgstab(rt::ThreadPool& pool, const sparse::Csr& a,
                     std::span<const double> b, std::span<double> x,
                     const BicgstabOptions& opts) {
  const DoacrossIlu0Preconditioner m(
      pool, a, sparse::PlanOptions{.strategy = opts.strategy});
  return bicgstab(a, b, x, m, opts);
}

}  // namespace pdx::solve
