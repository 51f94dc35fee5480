#include "sparse/par_trisolve.hpp"

#include <chrono>

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
    for (index_t lvl = 0; lvl < reorder.num_levels(); ++lvl) {
      const index_t lo = reorder.level_ptr[static_cast<std::size_t>(lvl)];
      const index_t hi = reorder.level_ptr[static_cast<std::size_t>(lvl) + 1];
      const rt::IterRange r =
          rt::static_block_range(hi - lo, tid, nthreads_in);
      for (index_t k = lo + r.begin; k < lo + r.end; ++k) {
        const index_t i = reorder.order[static_cast<std::size_t>(k)];
        double acc = rhs_p[i];
        const index_t k_end = l.row_end(i) - 1;
        for (index_t kk = l.row_begin(i); kk < k_end; ++kk) {
          acc -= l.val[static_cast<std::size_t>(kk)] *
                 yp[l.idx[static_cast<std::size_t>(kk)]];
          if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
        }
        yp[i] = acc / l.val[static_cast<std::size_t>(k_end)];
      }
      barrier.arrive_and_wait();  // wavefront boundary
    }
    if (tid == 0) t1 = clock::now();
  });

  stats.execute_seconds = std::chrono::duration<double>(t1 - t0).count();
  return stats;
}

}  // namespace pdx::sparse
