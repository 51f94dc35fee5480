#include "solve/gmres.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "solve/vec.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

SolveReport gmres(const sparse::Csr& a, std::span<const double> b,
                  std::span<double> x, const Preconditioner& m,
                  const GmresOptions& opts) {
  if (a.rows != a.cols) throw std::invalid_argument("gmres: not square");
  const std::size_t n = static_cast<std::size_t>(a.rows);
  if (b.size() < n || x.size() < n) {
    throw std::invalid_argument("gmres: vector size mismatch");
  }
  const int mdim = opts.restart;
  if (mdim < 1) throw std::invalid_argument("gmres: restart must be >= 1");

  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  SolveReport rep;
  std::vector<double> r(n), w(n), zv(n);

  // Krylov basis (mdim + 1 vectors) and Hessenberg in column-major-ish
  // h[j] holds column j (entries 0..j+1).
  std::vector<std::vector<double>> v(static_cast<std::size_t>(mdim) + 1,
                                     std::vector<double>(n));
  std::vector<std::vector<double>> h(static_cast<std::size_t>(mdim),
                                     std::vector<double>(static_cast<std::size_t>(mdim) + 1, 0.0));
  std::vector<double> cs(static_cast<std::size_t>(mdim), 0.0);
  std::vector<double> sn(static_cast<std::size_t>(mdim), 0.0);
  std::vector<double> g(static_cast<std::size_t>(mdim) + 1, 0.0);

  int total_iters = 0;
  double rnorm = 0.0;

  while (total_iters < opts.max_iterations) {
    // r = b - A x
    sparse::spmv(a, x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    rnorm = norm2(r);
    if (rep.residual_history.empty() && opts.record_history) {
      rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
    }
    if (rnorm <= stop) {
      rep.converged = true;
      break;
    }

    for (std::size_t i = 0; i < n; ++i) v[0][i] = r[i] / rnorm;
    fill(g, 0.0);
    g[0] = rnorm;

    int j = 0;
    for (; j < mdim && total_iters < opts.max_iterations; ++j, ++total_iters) {
      // w = A M⁻¹ v_j (right preconditioning)
      m.apply(v[static_cast<std::size_t>(j)], zv);
      sparse::spmv(a, zv, w);

      // Modified Gram-Schmidt
      for (int i = 0; i <= j; ++i) {
        const double hij = dot(w, v[static_cast<std::size_t>(i)]);
        h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = hij;
        axpy(-hij, v[static_cast<std::size_t>(i)], w);
      }
      const double hnext = norm2(w);
      h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j) + 1] = hnext;
      if (hnext > 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
          v[static_cast<std::size_t>(j) + 1][i] = w[i] / hnext;
        }
      }

      // Apply previous Givens rotations to the new column.
      for (int i = 0; i < j; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] +
                         sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = t;
      }
      // New rotation to annihilate h(j+1, j).
      const double hjj = h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)];
      const double hj1 = h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j) + 1];
      const double denom = std::hypot(hjj, hj1);
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] = hjj / denom;
        sn[static_cast<std::size_t>(j)] = hj1 / denom;
      }
      h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)] = denom;
      h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j) + 1] = 0.0;

      const double gj = g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = cs[static_cast<std::size_t>(j)] * gj;
      g[static_cast<std::size_t>(j) + 1] = -sn[static_cast<std::size_t>(j)] * gj;

      rnorm = std::fabs(g[static_cast<std::size_t>(j) + 1]);
      rep.iterations = total_iters + 1;
      if (opts.record_history) {
        rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
      }
      if (rnorm <= stop) {
        ++j;
        ++total_iters;
        break;
      }
    }

    // Back-substitute the j x j triangular system for the update weights.
    std::vector<double> yk(static_cast<std::size_t>(j), 0.0);
    for (int i = j - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < j; ++k) {
        acc -= h[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] * yk[static_cast<std::size_t>(k)];
      }
      yk[static_cast<std::size_t>(i)] = acc / h[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    // x += M⁻¹ (V y)
    fill(w, 0.0);
    for (int i = 0; i < j; ++i) {
      axpy(yk[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)], w);
    }
    m.apply(w, zv);
    axpy(1.0, zv, x);

    if (rnorm <= stop) {
      rep.converged = true;
      break;
    }
  }

  rep.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
  return rep;
}

SolveReport gmres(rt::ThreadPool& pool, const sparse::Csr& a,
                  std::span<const double> b, std::span<double> x,
                  const GmresOptions& opts) {
  const DoacrossIlu0Preconditioner m(
      pool, a, sparse::PlanOptions{.strategy = opts.strategy});
  return gmres(a, b, x, m, opts);
}

}  // namespace pdx::solve
