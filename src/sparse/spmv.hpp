// spmv.hpp — sparse matrix–vector products.
//
// Used by the Krylov solvers (S8) and as a doall-style contrast workload in
// the benches: SpMV has no cross-iteration dependences, so it parallelizes
// with a plain `parallel_for` — exactly the kind of loop the preprocessed
// doacross is *not* needed for. The lockstep CG's strip product is
// LaneOps::spmv_dot (sparse/kernels.hpp), per lane exactly spmv's row.
#pragma once

#include <span>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "sparse/csr.hpp"

namespace pdx::sparse {

/// y = A * x, sequential.
inline void spmv(const Csr& a, std::span<const double> x,
                 std::span<double> y) {
  if (static_cast<index_t>(x.size()) < a.cols ||
      static_cast<index_t>(y.size()) < a.rows) {
    throw std::invalid_argument("spmv: vector size mismatch");
  }
  for (index_t r = 0; r < a.rows; ++r) {
    double acc = 0.0;
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      acc += a.val[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

/// y = A * x across `nthreads` pool members (row-parallel doall).
inline void spmv_parallel(rt::ThreadPool& pool, const Csr& a,
                          std::span<const double> x, std::span<double> y,
                          unsigned nthreads = 0) {
  if (static_cast<index_t>(x.size()) < a.cols ||
      static_cast<index_t>(y.size()) < a.rows) {
    throw std::invalid_argument("spmv_parallel: vector size mismatch");
  }
  const double* xp = x.data();
  double* yp = y.data();
  pool.parallel_for(a.rows, nthreads, [&a, xp, yp](index_t r) {
    double acc = 0.0;
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      acc += a.val[static_cast<std::size_t>(k)] *
             xp[a.idx[static_cast<std::size_t>(k)]];
    }
    yp[r] = acc;
  });
}

}  // namespace pdx::sparse
