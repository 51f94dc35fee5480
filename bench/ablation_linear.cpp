// ablation_linear — the §2.3 linear-subscript variant (E5): eliminate the
// inspector and the iter table when a(i) = c*i + d is known.
//
// The paper: "it is possible to eliminate the execution time preprocessing
// phase along with the need to allocate storage for array iter". The
// Fig. 4 loop's a(i) = 2i qualifies. Expect: identical results, zero
// inspector time, and a modest end-to-end win that grows as the value
// space (and hence iter traffic) grows.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "benchsupport/env.hpp"
#include "benchsupport/stats.hpp"
#include "benchsupport/table.hpp"
#include "benchsupport/timer.hpp"
#include "core/doacross.hpp"
#include "core/linear_doacross.hpp"
#include "gen/testloop.hpp"
#include "runtime/thread_pool.hpp"

namespace bench = pdx::bench;
namespace core = pdx::core;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
using pdx::index_t;

int main() {
  std::cout << bench::environment_banner("ablation_linear (paper §2.3)")
            << "\n";
  const unsigned procs = bench::default_procs();
  const int reps = bench::default_reps();
  rt::ThreadPool pool(procs);

  bench::Table table({"N", "M", "L", "general(us)", "inspect(us)",
                      "linear(us)", "speedup", "iter bytes saved"});

  const index_t base_n = bench::quick_mode() ? 2000 : 10000;
  for (index_t n : {base_n, base_n * 4}) {
    for (int l : {7, 8}) {
      const gen::TestLoop tl = gen::make_test_loop({.n = n, .m = 5, .l = l});
      std::vector<double> y = gen::make_initial_y(tl);

      core::DoacrossEngine<double> eng(pool, tl.value_space);
      core::DoacrossOptions opts;
      opts.nthreads = procs;
      double best_gen = 1e300;
      core::DoacrossStats gen_stats;
      for (int r = 0; r < reps + 1; ++r) {
        y = tl.y0;
        const auto s = eng.run(std::span<const index_t>(tl.a),
                               std::span<double>(y),
                               [&tl](auto& it) { gen::test_loop_body(tl, it); },
                               opts);
        if (r > 0 && s.total_seconds() < best_gen) {
          best_gen = s.total_seconds();
          gen_stats = s;
        }
      }

      // Compare phase-level totals (dispatch excluded) on both sides.
      core::LinearDoacross<double> lin(pool);
      core::SimpleDoacrossOptions lopts;
      lopts.nthreads = procs;
      double t_lin = 1e300;
      for (int r = 0; r < reps + 1; ++r) {
        y = tl.y0;
        const auto s = lin.run({.c = 2, .d = tl.base, .n = tl.params.n},
                               std::span<double>(y),
                               [&tl](auto& it) { gen::test_loop_body(tl, it); },
                               lopts);
        if (r > 0) t_lin = std::min(t_lin, s.total_seconds());
      }

      table.row()
          .cell(static_cast<long long>(n))
          .cell(5)
          .cell(l)
          .cell(best_gen * 1e6, 1)
          .cell(gen_stats.inspect_seconds * 1e6, 1)
          .cell(t_lin * 1e6, 1)
          .cell(best_gen / t_lin, 2)
          .cell(static_cast<long long>(tl.value_space *
                                       static_cast<index_t>(sizeof(index_t))));
    }
  }
  table.print();
  std::printf("\n'iter bytes saved' is the iter-table allocation the linear "
              "variant avoids entirely (value_space x 8 bytes).\n");
  return 0;
}
