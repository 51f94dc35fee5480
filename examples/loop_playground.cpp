// loop_playground — interactive exploration of the paper's Figure 6 loop.
//
// Runs the Fig. 4 test loop for user-chosen N, M, L, and thread count and
// prints the dependence profile and parallel efficiency, so you can watch
// the odd/even-L dichotomy and the distance effect by hand. Exits 1 when
// the parallel result differs from the sequential loop in any bit.
//
// Usage:  ./examples/loop_playground [N] [M] [L] [threads] [work_reps]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchsupport/stats.hpp"
#include "benchsupport/timer.hpp"
#include "core/advisor.hpp"
#include "core/doacross.hpp"
#include "core/doconsider.hpp"
#include "gen/testloop.hpp"
#include "runtime/affinity.hpp"
#include "runtime/thread_pool.hpp"

using pdx::index_t;
namespace core = pdx::core;
namespace gen = pdx::gen;
namespace bench = pdx::bench;

int main(int argc, char** argv) {
  gen::TestLoopParams params;
  params.n = argc > 1 ? std::atoll(argv[1]) : 10000;
  params.m = argc > 2 ? std::atoi(argv[2]) : 5;
  params.l = argc > 3 ? std::atoi(argv[3]) : 8;
  const unsigned threads = argc > 4 ? static_cast<unsigned>(std::atoi(argv[4]))
                                    : std::min(16u, pdx::rt::allowed_cpus());
  params.work_reps = argc > 5 ? std::atoi(argv[5]) : 16;

  const gen::TestLoop tl = gen::make_test_loop(params);
  const core::DepGraph deps = gen::test_loop_deps(tl);

  std::printf("test loop: N=%lld M=%d L=%d work_reps=%d threads=%u\n",
              static_cast<long long>(params.n), params.m, params.l,
              params.work_reps, threads);
  std::printf("dependences: %lld true cross-iteration edges (%s)\n",
              static_cast<long long>(deps.edges()),
              params.l % 2 == 1 ? "odd L: none expected"
                                : "even L: distance L/2 - j");

  // Let the dependence-aware advisor pick the executor configuration.
  const core::ScheduleAdvice advice = core::advise_schedule(deps, threads);
  std::printf("advisor: %s strategy, %s schedule, %s — %s\n",
              core::to_string(advice.strategy),
              pdx::rt::to_string(advice.schedule).c_str(),
              advice.use_reordering ? "doconsider order" : "source order",
              advice.rationale.c_str());

  std::vector<double> y = gen::make_initial_y(tl);
  const double t_seq = bench::summarize(bench::time_samples(5, 1, [&] {
                         y = tl.y0;
                         gen::run_test_loop_seq(tl, y);
                       })).min;
  const std::vector<double> y_seq = y;

  pdx::rt::ThreadPool pool(threads);
  core::DoacrossEngine<double> eng(pool, tl.value_space);
  core::DoacrossOptions opts;
  opts.schedule = advice.schedule;
  core::Reordering reorder;
  if (advice.use_reordering) {
    reorder = core::doconsider_order(deps);
    opts.order = reorder.order.data();
  }
  core::DoacrossStats stats;
  const double t_par = bench::summarize(bench::time_samples(5, 1, [&] {
                         y = tl.y0;
                         stats = eng.run(
                             std::span<const index_t>(tl.a),
                             std::span<double>(y),
                             [&tl](auto& it) { gen::test_loop_body(tl, it); },
                             opts);
                       })).min;

  std::printf("\n  T_seq            %10.1f us\n", t_seq * 1e6);
  std::printf("  T_par            %10.1f us\n", t_par * 1e6);
  std::printf("    inspector      %10.1f us\n", stats.inspect_seconds * 1e6);
  std::printf("    executor       %10.1f us\n", stats.execute_seconds * 1e6);
  std::printf("    postprocessor  %10.1f us\n", stats.post_seconds * 1e6);
  std::printf("  busy waits       %10llu episodes\n",
              static_cast<unsigned long long>(stats.wait_episodes));
  std::printf("  speedup          %10.2f\n", bench::speedup(t_seq, t_par));
  std::printf("  efficiency       %10.3f   (paper metric T_seq/(p*T_par))\n",
              bench::parallel_efficiency(t_seq, t_par, threads));

  std::size_t mismatch = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] != y_seq[i]) ++mismatch;
  }
  std::printf("\nresults %s\n", mismatch == 0
                                    ? "match the sequential loop exactly "
                                      "(bitwise)"
                                    : "MISMATCH");
  return mismatch == 0 ? 0 : 1;
}
