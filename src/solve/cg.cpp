#include "solve/cg.hpp"

#include <cmath>
#include <stdexcept>

#include "solve/vec.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

namespace {

double relative(double rnorm, double bnorm) {
  return bnorm > 0 ? rnorm / bnorm : rnorm;
}

}  // namespace

void pcg_lockstep(const sparse::Csr& a, std::span<const CgSystem> systems,
                  const Preconditioner& m, const CgOptions& opts,
                  CgScratch& s, rt::ThreadPool* pool, unsigned nthreads) {
  const std::size_t n = static_cast<std::size_t>(a.rows);
  const std::size_t k = systems.size();
  if (k > 1 && !pool) {
    throw std::invalid_argument(
        "pcg_lockstep: more than one system needs a pool");
  }
  if (s.z.size() < n * k) {
    s.z.resize(n * k);
    s.p.resize(n * k);
    s.ap.resize(n * k);
  }
  if (s.cols.size() < k) {
    s.cols.resize(k);
    s.active.reserve(k);
    s.in.resize(k);
    s.out.resize(k);
  }
  const auto col = [n](std::vector<double>& v, std::size_t c) {
    return std::span<double>(v.data() + c * n, n);
  };
  const auto res = [n, systems](std::size_t c) {
    return std::span<double>(systems[c].r, n);
  };

  // Initial residual check: a system whose guess already meets the
  // tolerance never enters the recurrence.
  s.active.clear();
  for (std::size_t c = 0; c < k; ++c) {
    SolveReport& rep = *systems[c].report;
    CgScratch::Column& st = s.cols[c];
    rep = SolveReport{};
    st.bnorm = norm2(systems[c].b);
    st.stop = opts.rel_tolerance * (st.bnorm > 0.0 ? st.bnorm : 1.0);
    st.rnorm = norm2(res(c));
    if (opts.record_history) {
      rep.residual_history.push_back(relative(st.rnorm, st.bnorm));
    }
    if (st.rnorm <= st.stop) {
      rep.converged = true;
    } else if (opts.max_iterations > 0) {
      s.active.push_back(c);
    }
  }

  // z = M⁻¹ r for every running system, in one apply_batch call.
  const auto precondition = [&] {
    for (std::size_t i = 0; i < s.active.size(); ++i) {
      s.in[i] = systems[s.active[i]].r;
      s.out[i] = col(s.z, s.active[i]).data();
    }
    m.apply_batch(a.rows, s.in.data(), s.out.data(),
                  static_cast<index_t>(s.active.size()));
  };

  if (!s.active.empty()) {
    precondition();
    for (std::size_t c : s.active) {
      copy(col(s.z, c), col(s.p, c));
      s.cols[c].rho = dot(res(c), col(s.z, c));
    }
  }

  for (int it = 0; !s.active.empty(); ++it) {
    // ap = A p
    const std::size_t live = s.active.size();
    if (live == 1) {
      sparse::spmv(a, col(s.p, s.active[0]), col(s.ap, s.active[0]));
    } else {
      for (std::size_t i = 0; i < live; ++i) {
        s.in[i] = col(s.p, s.active[i]).data();
        s.out[i] = col(s.ap, s.active[i]).data();
      }
      sparse::spmv_batch_parallel(*pool, a, s.in.data(), s.out.data(),
                                  static_cast<index_t>(live), nthreads);
    }

    std::size_t keep = 0;
    for (std::size_t c : s.active) {
      SolveReport& rep = *systems[c].report;
      CgScratch::Column& st = s.cols[c];
      const std::span<double> p = col(s.p, c);
      const std::span<double> ap = col(s.ap, c);
      const std::span<double> r = res(c);
      const double denom = dot(p, ap);
      if (denom == 0.0 || !std::isfinite(denom)) {
        rep.breakdown = true;
        rep.breakdown_reason = "p·Ap denominator zero or non-finite";
        continue;
      }
      const double alpha = st.rho / denom;
      axpy(alpha, p, systems[c].x);
      axpy(-alpha, ap, r);

      st.rnorm = norm2(r);
      rep.iterations = it + 1;
      if (opts.record_history) {
        rep.residual_history.push_back(relative(st.rnorm, st.bnorm));
      }
      if (st.rnorm <= st.stop) {
        rep.converged = true;
        continue;
      }
      if (it + 1 < opts.max_iterations) s.active[keep++] = c;
    }
    s.active.resize(keep);
    if (keep == 0) break;

    precondition();
    for (std::size_t c : s.active) {
      CgScratch::Column& st = s.cols[c];
      const double rho_new = dot(res(c), col(s.z, c));
      const double beta = rho_new / st.rho;
      st.rho = rho_new;
      // p = z + beta p
      xpby(col(s.z, c), beta, col(s.p, c));
    }
  }

  for (std::size_t c = 0; c < k; ++c) {
    systems[c].report->final_relative_residual =
        relative(s.cols[c].rnorm, s.cols[c].bnorm);
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
