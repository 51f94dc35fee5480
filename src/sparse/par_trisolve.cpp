#include "sparse/par_trisolve.hpp"

#include <chrono>

#include "core/walk.hpp"
#include "runtime/barrier.hpp"

namespace pdx::sparse {

core::DoacrossStats trisolve_levelsched(rt::ThreadPool& pool, const Csr& l,
                                        std::span<const double> rhs,
                                        std::span<double> y,
                                        const core::Reordering& reorder,
                                        unsigned nthreads, int work_reps) {
  if (l.rows != l.cols) throw std::invalid_argument("trisolve: not square");
  if (static_cast<index_t>(rhs.size()) < l.rows ||
      static_cast<index_t>(y.size()) < l.rows ||
      reorder.iterations() != l.rows) {
    throw std::invalid_argument("trisolve_levelsched: size mismatch");
  }
  core::DoacrossStats stats;
  const index_t n = l.rows;
  if (n == 0) return stats;

  const unsigned nth = pool.clamp_threads(nthreads);
  rt::Barrier barrier(nth);
  const double* rhs_p = rhs.data();
  double* yp = y.data();

  using clock = std::chrono::steady_clock;
  clock::time_point t0, t1;

  pool.parallel_region(nth, [&](unsigned tid, unsigned nthreads_in) {
    barrier.arrive_and_wait();  // rendezvous: exclude pool wake-up
    if (tid == 0) t0 = clock::now();
    core::NoWait wait;
    core::level_walk(reorder, tid, nthreads_in, barrier,
                     [&](index_t pos, index_t) noexcept {
                       lower_row(l, rhs_p, yp, work_reps,
                                 reorder.order[static_cast<std::size_t>(pos)],
                                 wait);
                     });
    if (tid == 0) t1 = clock::now();
  });

  stats.execute_seconds = std::chrono::duration<double>(t1 - t0).count();
  return stats;
}

}  // namespace pdx::sparse
