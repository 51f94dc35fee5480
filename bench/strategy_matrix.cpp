// strategy_matrix — measures every plan execution strategy against every
// matrix family, and reports what Auto would have picked.
//
// The strategy layer (DESIGN.md §9) claims the best trisolve executor is
// a function of the factor's measured dependence structure. This harness
// makes the claim inspectable: for each matrix family (regular stencil,
// RCM-permuted stencil, a randomly scattered band, and the band RCM
// recovers from it) and thread count, it times a fused L+U solve under
// all three concrete strategies, verifies each is bitwise identical to
// the sequential solves before any timing is trusted, and runs the Auto
// plan's calibration race to lock-in (DESIGN.md §13) before timing its
// steady state — so the reported Auto number is the measured winner, and
// the JSON carries the full race (per-strategy best_us, epochs) next to
// the decision. A serial plan — every concrete serial row, and Auto at
// one thread or when serial wins — also races its walk order (DESIGN.md
// §13); the Auto row runs that race to lock-in too, and a cell whose
// order race locked in counts as calibrated, so the 1-thread cells are
// gated like the others. The Auto strategy is additionally timed under
// PlanOptions::layout = kCsrView so the packed-stream contribution
// (DESIGN.md §10) is separated from the strategy choice;
// ci/perf_gate.py gates Auto against the best measured strategy per
// cell and watches the layout ratio.
//
// `--json <path>` writes the table as a JSON artifact (CI publishes it
// as BENCH_strategy.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "benchsupport/env.hpp"
#include "benchsupport/table.hpp"
#include "benchsupport/timer.hpp"
#include "core/advisor.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/permute.hpp"
#include "sparse/rcm.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace bench = pdx::bench;
namespace core = pdx::core;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
namespace sp = pdx::sparse;
using pdx::index_t;
using sp::ExecutionStrategy;

namespace {

struct Workload {
  std::string name;
  sp::Csr a;
};

struct Row {
  std::string matrix;
  unsigned threads;
  ExecutionStrategy strategy;
  double us_per_solve;
  bool chosen_by_auto;
  std::string rationale;   // only for the auto row
  double us_csrview = 0;   // auto row: same strategy under kCsrView
  double layout_speedup = 0;  // auto row: csr-view / packed
  // Auto row only: the calibration race record (DESIGN.md §13).
  bool calibrated = false;
  bool cache_hit = false;
  int exploration_epochs = 0;
  std::vector<core::RaceTiming<core::ExecStrategy>> race;
  // Auto row only: the walk order of a serial pick and whether it was
  // measured (DESIGN.md §13).
  core::WalkOrder order = core::WalkOrder::kSource;
  bool order_calibrated = false;
};

std::vector<index_t> random_perm(index_t n, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  gen::SplitMix64 rng(seed);
  for (index_t i = n - 1; i > 0; --i) {
    const index_t j = static_cast<index_t>(
        rng.next() % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

sp::Csr banded(index_t n, index_t gap) {
  sp::CsrBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i >= gap) b.add(i, i - gap, -1.0);
    b.add(i, i, 8.0);
    if (i + gap < n) b.add(i, i + gap, -1.0);
  }
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::cout << bench::environment_banner(
                   "strategy_matrix (plan execution strategies)")
            << "\n";
  const unsigned max_procs = bench::default_procs();
  const int reps = bench::default_reps();
  const int grid = bench::quick_mode() ? 32 : 64;
  const index_t band_n = bench::quick_mode() ? 1500 : 6000;

  std::vector<Workload> workloads;
  workloads.push_back({"stencil-5pt", gen::five_point(grid, grid)});
  {
    const sp::Csr a = gen::five_point(grid, grid);
    workloads.push_back(
        {"stencil-rcm", sp::permute_symmetric(a, sp::rcm_order(a))});
  }
  {
    const sp::Csr b = banded(band_n, 4);
    const sp::Csr scattered =
        sp::permute_symmetric(b, random_perm(band_n, 17));
    workloads.push_back({"band-scattered", scattered});
    workloads.push_back(
        {"band-rcm",
         sp::permute_symmetric(scattered, sp::rcm_order(scattered))});
  }

  rt::ThreadPool pool(max_procs);
  std::vector<unsigned> thread_counts{1};
  if (max_procs >= 2) thread_counts.push_back(2);
  if (max_procs > 2) thread_counts.push_back(max_procs);

  constexpr ExecutionStrategy kConcrete[] = {ExecutionStrategy::kSerial,
                                             ExecutionStrategy::kDoacross,
                                             ExecutionStrategy::kLevelBarrier};
  constexpr int kNumConcrete = 3;

  bench::Table table({"matrix", "threads", "serial(us)", "doacross(us)",
                      "level-barrier(us)", "auto picks", "auto(us)",
                      "auto csr-view(us)", "layout speedup"});
  std::vector<Row> rows;
  bool all_exact = true;

  for (const Workload& w : workloads) {
    const sp::IluFactors f = sp::ilu0(w.a);
    const index_t n = f.l.rows;
    gen::SplitMix64 rng(5);
    std::vector<double> rhs(static_cast<std::size_t>(n));
    for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);
    std::vector<double> t(static_cast<std::size_t>(n)),
        z_seq(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
    sp::trisolve_lower_seq(f.l, rhs, t);
    sp::trisolve_upper_seq(f.u, t, z_seq);

    for (unsigned nth : thread_counts) {
      double us[kNumConcrete] = {};
      for (int s = 0; s < kNumConcrete; ++s) {
        sp::PlanOptions opts;
        opts.nthreads = nth;
        opts.strategy = kConcrete[s];
        sp::TrisolvePlan plan(pool, f.l, f.u, opts);
        // Correctness gate before any timing is trusted.
        std::fill(z.begin(), z.end(), 0.0);
        plan.solve(rhs, z);
        for (index_t i = 0; i < n; ++i) {
          if (z[static_cast<std::size_t>(i)] !=
              z_seq[static_cast<std::size_t>(i)]) {
            all_exact = false;
            std::fprintf(stderr, "MISMATCH %s nth=%u %s row %lld\n",
                         w.name.c_str(), nth,
                         core::to_string(kConcrete[s]),
                         static_cast<long long>(i));
            break;
          }
        }
        const auto samples =
            bench::time_samples(reps, 1, [&] { plan.solve(rhs, z); });
        us[s] = *std::min_element(samples.begin(), samples.end()) * 1e6;
        rows.push_back({w.name, nth, kConcrete[s], us[s], false, ""});
      }

      // Each cell races from scratch: a warm process-wide cache would
      // otherwise answer later cells from earlier ones.
      core::tuning_cache().clear();
      sp::PlanOptions aopts;
      aopts.nthreads = nth;
      aopts.strategy = ExecutionStrategy::kAuto;
      sp::TrisolvePlan autoplan(pool, f.l, f.u, aopts);
      // Run the calibration races to lock-in (bitwise-gated like the
      // concrete strategies), then time only steady-state solves on the
      // measured winner.
      while (autoplan.calibrating() || autoplan.order_racing()) {
        autoplan.solve(rhs, z);
      }
      for (index_t i = 0; i < n; ++i) {
        if (z[static_cast<std::size_t>(i)] !=
            z_seq[static_cast<std::size_t>(i)]) {
          all_exact = false;
          std::fprintf(stderr, "MISMATCH %s nth=%u auto row %lld\n",
                       w.name.c_str(), nth, static_cast<long long>(i));
          break;
        }
      }
      const auto auto_samples =
          bench::time_samples(reps, 1, [&] { autoplan.solve(rhs, z); });
      const double us_auto =
          *std::min_element(auto_samples.begin(), auto_samples.end()) * 1e6;
      // Same auto-chosen strategy through the caller's CSR instead of
      // the packed streams: the strategy/layout contributions separate.
      // The view plan hits the tuning cache the race just fed, so it
      // adopts the identical winner without re-racing.
      sp::PlanOptions vopts = aopts;
      vopts.layout = sp::PlanLayout::kCsrView;
      sp::TrisolvePlan viewplan(pool, f.l, f.u, vopts);
      while (viewplan.calibrating() || viewplan.order_racing()) {
        viewplan.solve(rhs, z);
      }
      const auto view_samples =
          bench::time_samples(reps, 1, [&] { viewplan.solve(rhs, z); });
      const double us_view =
          *std::min_element(view_samples.begin(), view_samples.end()) * 1e6;
      Row auto_row{w.name,  nth,  autoplan.strategy(),
                   us_auto, true, autoplan.telemetry().rationale};
      auto_row.order = autoplan.telemetry().order;
      auto_row.order_calibrated = autoplan.telemetry().order_race.calibrated;
      auto_row.calibrated =
          autoplan.telemetry().race.calibrated || auto_row.order_calibrated;
      auto_row.cache_hit = autoplan.telemetry().race.cache_hit;
      auto_row.exploration_epochs =
          autoplan.telemetry().race.exploration_epochs;
      auto_row.race = autoplan.telemetry().race.timings;
      // Both plans resolved the same winner (measured, or heuristic when
      // the race is not viable); if they ever diverge the layout
      // comparison would be across strategies, so it is dropped rather
      // than reported.
      if (viewplan.strategy() == autoplan.strategy()) {
        auto_row.us_csrview = us_view;
        auto_row.layout_speedup = us_auto > 0 ? us_view / us_auto : 0.0;
      }
      rows.push_back(auto_row);
      for (Row& r : rows) {
        if (r.matrix == w.name && r.threads == nth && !r.chosen_by_auto &&
            r.strategy == autoplan.strategy()) {
          r.chosen_by_auto = true;
        }
      }

      table.row()
          .cell(w.name)
          .cell(nth)
          .cell(us[0], 1)
          .cell(us[1], 1)
          .cell(us[2], 1)
          .cell(core::to_string(autoplan.strategy()))
          .cell(us_auto, 1)
          .cell(us_view, 1)
          .cell(auto_row.layout_speedup, 2);
    }
  }
  table.print();
  std::printf(
      "\nFused L+U solve wall time per strategy; 'auto picks' is the "
      "strategy the calibration race locked in (the heuristic advisor "
      "seeds the race; the stopwatch decides). Bitwise check vs "
      "sequential solves: %s.\n",
      all_exact ? "exact" : "FAILED");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"strategy_matrix\",\n"
        << "  \"bitwise_exact\": " << (all_exact ? "true" : "false")
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"matrix\": \"" << r.matrix << "\", \"threads\": "
          << r.threads << ", \"strategy\": \"" << core::to_string(r.strategy)
          << "\", \"us_per_solve\": " << r.us_per_solve
          << ", \"chosen_by_auto\": " << (r.chosen_by_auto ? "true" : "false");
      if (!r.rationale.empty()) {
        out << ", \"rationale\": \"" << r.rationale << "\"";
      }
      if (r.chosen_by_auto && r.us_csrview > 0) {
        out << ", \"us_per_solve_csrview\": " << r.us_csrview
            << ", \"layout_speedup\": " << r.layout_speedup;
      }
      if (!r.rationale.empty()) {
        // The auto row: what calibration decided and the full race.
        out << ", \"chosen_after_calibration\": \""
            << core::to_string(r.strategy) << "\", \"calibrated\": "
            << (r.calibrated ? "true" : "false") << ", \"cache_hit\": "
            << (r.cache_hit ? "true" : "false")
            << ", \"exploration_epochs\": " << r.exploration_epochs
            << ", \"walk_order\": \"" << core::to_string(r.order)
            << "\", \"order_calibrated\": "
            << (r.order_calibrated ? "true" : "false");
        if (!r.race.empty()) {
          out << ", \"race\": [";
          for (std::size_t j = 0; j < r.race.size(); ++j) {
            out << (j ? ", " : "") << "{\"strategy\": \""
                << core::to_string(r.race[j].choice)
                << "\", \"best_us\": " << r.race[j].best_us
                << ", \"epochs\": " << r.race[j].epochs << "}";
          }
          out << "]";
        }
      }
      out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_exact ? 0 : 1;
}
