// spmv.hpp — sparse matrix–vector products.
//
// Used by the Krylov solvers (S8) and as a doall-style contrast workload in
// the benches: SpMV has no cross-iteration dependences, so it parallelizes
// with a plain `parallel_for` — exactly the kind of loop the preprocessed
// doacross is *not* needed for.
#pragma once

#include <span>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernels.hpp"

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

/// Strip product over row-major n-by-k strips (lane c of row i at
/// i*k + c): ys = A xs lane by lane, sequential. Every lane is bitwise
/// equal to spmv on that lane — the row kernel keeps spmv's term order
/// and its separate mul and add. A one-lane strip is a plain vector and
/// runs spmv itself. xs holds >= a.cols*k elements, ys >= a.rows*k; the
/// strips must not alias.
inline void spmv_strip(
    const Csr& a, const double* xs, double* ys, index_t k,
    const kernels::LaneOps& ops = kernels::dispatched_ops()) {
  if (k < 1) throw std::invalid_argument("spmv_strip: k must be >= 1");
  const std::size_t rows = static_cast<std::size_t>(a.rows);
  if (k == 1) {
    spmv(a, {xs, static_cast<std::size_t>(a.cols)}, {ys, rows});
    return;
  }
  const double* const val = a.val.data();
  const index_t* const idx = a.idx.data();
  for (index_t r = 0; r < a.rows; ++r) {
    const index_t b = a.row_begin(r);
    ops.spmv_row(ys + r * k, val + b, idx + b, a.row_end(r) - b, xs, k);
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
