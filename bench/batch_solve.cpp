// batch_solve — measures the batched multi-RHS execution layer.
//
// Serving many right-hand sides against one factorization is the repeated
// case the batched layer exists for. This harness compares, per (threads,
// k) configuration, two ways of pushing k RHS through the same
// TrisolvePlan:
//
//   sequential  — k solve() calls: k pool dispatches, k full fused L+U
//                 solves (what a server without batching would run).
//   batch-ilv   — solve_batch: ONE dispatch, ONE wavefront-interleaved
//                 pass per factor; each row carries all k columns, so
//                 synchronization is amortized k-fold and each matrix row
//                 is read once per batch. At k == 1 it is the fused
//                 solve itself.
//
// Every batched result is verified bitwise against the sequential solves
// before timing.
//
// A second table measures the Krylov layer above it at one thread:
// lockstep CG (solve::pcg_lockstep) over the same 32 right-hand sides,
// k at a time, for k in {1, 8, 16, 32} — the per-column time of each
// width and `cg_lockstep_gain`, the k = 1 time over it. Every lockstep
// x is verified bitwise against per-column pcg first.
//
// A third row measures lane groups (solve::BatchDriver on a settled serial
// plan): one drain of 24 systems on the 40² grid with the plan pinned
// serial and its order race off, through a width-1 pool (one strip) and a
// width-2 pool (two lane groups in one region). `cg_lane_split_gain` is
// the width-1 drain time over the width-2 one; both drains are verified
// bitwise against per-column pcg over sequential ILU(0). There is no
// knob: the two pools are the only difference.
//
// A fourth row measures the wavefront walk (DESIGN.md §9): single-RHS
// solve() on a serial plan over ILU(0) of I + 0.35·K, K the 64² 5-point
// operator (the timestep server's step operator), with the order race
// given a large budget. `wavefront_gain` is the source-order best µs over
// the wavefront best µs, both read from the plan's order-race record;
// every raced solve is verified bitwise against the sequential solves.
//
// `--json <path>` additionally writes the tables as a JSON artifact (CI
// publishes it as BENCH_batch.json), with a `machine` block (nproc,
// affinity CPUs, cgroup cpu.max, ISA). The bench exits 1 on any bitwise
// divergence.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "benchsupport/env.hpp"
#include "benchsupport/table.hpp"
#include "benchsupport/timer.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace bench = pdx::bench;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using pdx::index_t;

namespace {

struct Row {
  unsigned threads;
  index_t k;
  double us_seq;  // per RHS
  double us_ilv;  // per RHS
  std::uint64_t disp_seq;
  std::uint64_t disp_batch;
};

struct CgRow {
  index_t k;
  double us_per_column;
  double gain;  // k = 1 time / per-column time
};

struct SplitRow {
  index_t grid, k;
  unsigned groups;  // lane groups of the width-2 drain
  double ms_width1, ms_width2;
  double gain;  // ms_width1 / ms_width2
};

struct WaveRow {
  index_t grid;
  int epochs;  // raced solves per order
  double us_source, us_wavefront;
  double gain;  // us_source / us_wavefront
  const char* winner;
};

/// Lockstep CG at one thread over the columns of b (column-major, n by
/// max_k), k systems per pcg_lockstep call, from zero guesses. Returns
/// the rows, and clears `exact` if any x differs from per-column pcg.
std::vector<CgRow> cg_lockstep_rows(rt::ThreadPool& pool, const sp::Csr& a,
                                    const std::vector<double>& b,
                                    index_t max_k, int reps, bool& exact) {
  const index_t n = a.rows;
  const std::size_t nn = static_cast<std::size_t>(n);
  const solve::DoacrossIlu0Preconditioner m(pool, a, /*reorder=*/true,
                                            /*nthreads=*/1);
  solve::CgOptions opts;
  opts.record_history = false;

  std::vector<double> x_ref(b.size(), 0.0), x(b.size(), 0.0);
  for (index_t c = 0; c < max_k; ++c) {
    solve::pcg(a, std::span<const double>(b.data() + c * n, nn),
               std::span<double>(x_ref.data() + c * n, nn), m, opts);
  }

  solve::CgScratch scratch;
  std::vector<solve::SolveReport> reps_out(static_cast<std::size_t>(max_k));
  std::vector<solve::CgSystem> systems;
  // A zero guess makes b itself the initial residual b - A x.
  const auto solve_all = [&](index_t k) {
    std::fill(x.begin(), x.end(), 0.0);
    for (index_t c0 = 0; c0 < max_k; c0 += k) {
      systems.clear();
      for (index_t c = c0; c < std::min(max_k, c0 + k); ++c) {
        systems.push_back({std::span<const double>(b.data() + c * n, nn),
                           std::span<double>(x.data() + c * n, nn),
                           b.data() + c * n,
                           &reps_out[static_cast<std::size_t>(c)]});
      }
      solve::pcg_lockstep(a, systems, m, opts, scratch);
    }
  };

  std::vector<CgRow> rows;
  for (index_t k : {index_t{1}, index_t{8}, index_t{16}, index_t{32}}) {
    solve_all(k);
    if (x != x_ref) {
      exact = false;
      std::fprintf(stderr, "MISMATCH lockstep CG k=%lld vs per-column pcg\n",
                   static_cast<long long>(k));
    }
    const auto t = bench::time_samples(reps, 1, [&] { solve_all(k); });
    const double us = *std::min_element(t.begin(), t.end()) /
                      static_cast<double>(max_k) * 1e6;
    const double gain = rows.empty() ? 1.0 : rows.front().us_per_column / us;
    rows.push_back({k, us, gain});
  }
  return rows;
}

/// One BatchDriver drain of k systems from zero guesses on the 40² grid,
/// pinned serial with its order race off, on a width-1 and a width-2 pool.
/// Clears `exact` if either drain's x differs from per-column pcg over
/// the sequential ILU(0).
SplitRow lane_split_row(int reps, bool& exact) {
  const index_t grid = 40, k = 24;
  const sp::Csr a = gen::five_point(grid, grid);
  const std::size_t n = static_cast<std::size_t>(a.rows);
  gen::SplitMix64 rng(29);
  std::vector<double> b(n * static_cast<std::size_t>(k));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);

  solve::CgOptions copts;
  copts.record_history = false;
  const solve::Ilu0Preconditioner ref_m(a);
  std::vector<double> x_ref(b.size(), 0.0), x(b.size(), 0.0);
  for (index_t c = 0; c < k; ++c) {
    solve::pcg(a, std::span<const double>(b.data() + c * a.rows, n),
               std::span<double>(x_ref.data() + c * a.rows, n), ref_m, copts);
  }

  solve::BatchDriverOptions opts;
  opts.strategy = sp::ExecutionStrategy::kSerial;
  opts.calibration_epochs = 0;
  opts.use_tuning_cache = false;
  SplitRow row{grid, k, 1, 0.0, 0.0, 0.0};
  rt::ThreadPool pool1(1), pool2(2);
  solve::BatchDriver d1(pool1, a, opts), d2(pool2, a, opts);
  const auto drain = [&](solve::BatchDriver& d) {
    std::fill(x.begin(), x.end(), 0.0);
    for (index_t c = 0; c < k; ++c) {
      d.enqueue(std::span<const double>(b.data() + c * a.rows, n),
                std::span<double>(x.data() + c * a.rows, n));
    }
    return d.drain().lane_groups;
  };
  for (solve::BatchDriver* d : {&d1, &d2}) {
    row.groups = drain(*d);
    if (x != x_ref) {
      exact = false;
      std::fprintf(stderr, "MISMATCH lane-group drain (%u groups) vs pcg\n",
                   row.groups);
    }
  }
  // The two widths alternate, so both see the same machine noise; the
  // best of many samples per width is the figure.
  row.ms_width1 = row.ms_width2 = 1e300;
  for (int r = 0; r < std::max(reps, 41); ++r) {
    row.ms_width1 = std::min(row.ms_width1,
                             bench::time_call([&] { drain(d1); }) * 1e3);
    row.ms_width2 = std::min(row.ms_width2,
                             bench::time_call([&] { drain(d2); }) * 1e3);
  }
  row.gain = row.ms_width1 / row.ms_width2;
  return row;
}

/// The order race of a serial plan over ILU(0) of I + 0.35·K on the 64²
/// grid, run to lock-in with `epochs` solves per order. Clears `exact` if
/// any raced solve differs from the sequential solves.
WaveRow wavefront_row(rt::ThreadPool& pool, bool& exact) {
  const index_t grid = 64;
  const int epochs = 200;
  sp::Csr a = gen::five_point(grid, grid);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.row_begin(i); p < a.row_end(i); ++p) {
      double& v = a.val[static_cast<std::size_t>(p)];
      v *= 0.35;
      if (a.idx[static_cast<std::size_t>(p)] == i) v += 1.0;
    }
  }
  const sp::IluFactors f = sp::ilu0(a);
  const std::size_t n = static_cast<std::size_t>(a.rows);
  gen::SplitMix64 rng(31);
  std::vector<double> rhs(n), t(n), z_seq(n), z(n);
  for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);
  sp::trisolve_lower_seq(f.l, rhs, t);
  sp::trisolve_upper_seq(f.u, t, z_seq);

  sp::PlanOptions opts;
  opts.nthreads = 1;
  opts.strategy = sp::ExecutionStrategy::kSerial;
  opts.calibration_epochs = epochs;
  opts.use_tuning_cache = false;
  sp::TrisolvePlan plan(pool, f.l, f.u, opts);
  while (plan.order_racing()) {
    std::fill(z.begin(), z.end(), 0.0);
    plan.solve(rhs, z);
    if (z != z_seq) {
      exact = false;
      std::fprintf(stderr, "MISMATCH %s-order walk vs sequential solves\n",
                   pdx::core::to_string(plan.telemetry().order));
    }
  }
  // The race explores source order first, then the wavefront walk.
  const auto& timings = plan.telemetry().order_race.timings;
  WaveRow row{grid,
              epochs,
              timings[0].best_us,
              timings[1].best_us,
              0.0,
              pdx::core::to_string(plan.telemetry().order)};
  row.gain = row.us_wavefront > 0 ? row.us_source / row.us_wavefront : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::cout << bench::environment_banner("batch_solve (multi-RHS batching)")
            << "\n";
  const unsigned max_procs = bench::default_procs();
  const int reps = bench::default_reps();
  const int grid = bench::quick_mode() ? 40 : 80;

  const sp::Csr a = gen::five_point(grid, grid);
  const sp::IluFactors f = sp::ilu0(a);
  const index_t n = f.l.rows;

  rt::ThreadPool pool(max_procs);
  std::vector<unsigned> thread_counts{1};
  if (max_procs >= 2) thread_counts.push_back(2);
  if (max_procs > 2) thread_counts.push_back(max_procs);

  const index_t ks[] = {1, 4, 8, 16, 32};
  const index_t max_k = 32;

  gen::SplitMix64 rng(11);
  std::vector<double> b(static_cast<std::size_t>(n * max_k));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  std::vector<double> x_seq(b.size()), x_batch(b.size());

  bench::Table table({"threads", "k", "seq(us/rhs)", "batch-ilv(us/rhs)",
                      "speedup-ilv", "dispatches seq", "dispatches batch"});
  std::vector<Row> rows;
  bool all_exact = true;
  sp::PlanLayout layout = sp::PlanLayout::kPacked;  // resolved below

  for (unsigned nth : thread_counts) {
    sp::PlanOptions popts;
    popts.nthreads = nth;
    sp::TrisolvePlan plan(pool, f.l, f.u, popts);
    plan.reserve_batch(max_k);
    layout = plan.layout();

    for (index_t k : ks) {
      auto seq_apply = [&] {
        for (index_t c = 0; c < k; ++c) {
          plan.solve(std::span<const double>(b.data() + c * n,
                                             static_cast<std::size_t>(n)),
                     std::span<double>(x_seq.data() + c * n,
                                       static_cast<std::size_t>(n)));
        }
      };
      auto batch_apply = [&] {
        plan.solve_batch(std::span<const double>(b.data(),
                                                 static_cast<std::size_t>(n * k)),
                         std::span<double>(x_batch.data(),
                                           static_cast<std::size_t>(n * k)),
                         k);
      };

      // Correctness gate: the batch bitwise-matches the k sequential
      // solves before any timing is trusted.
      seq_apply();
      std::fill(x_batch.begin(),
                x_batch.begin() + static_cast<std::ptrdiff_t>(n * k), 0.0);
      batch_apply();
      for (index_t i = 0; i < n * k; ++i) {
        if (x_seq[static_cast<std::size_t>(i)] !=
            x_batch[static_cast<std::size_t>(i)]) {
          all_exact = false;
          std::fprintf(stderr, "MISMATCH nth=%u k=%lld at %lld\n", nth,
                       static_cast<long long>(k), static_cast<long long>(i));
          break;
        }
      }

      rt::DispatchProbe probe(pool);
      seq_apply();
      const std::uint64_t disp_seq = probe.delta();
      probe.rebase();
      batch_apply();
      const std::uint64_t disp_batch = probe.delta();

      const auto t_seq = bench::time_samples(reps, 1, seq_apply);
      const auto t_ilv = bench::time_samples(reps, 1, batch_apply);

      const double kd = static_cast<double>(k);
      Row r;
      r.threads = nth;
      r.k = k;
      r.us_seq =
          *std::min_element(t_seq.begin(), t_seq.end()) / kd * 1e6;
      r.us_ilv =
          *std::min_element(t_ilv.begin(), t_ilv.end()) / kd * 1e6;
      r.disp_seq = disp_seq;
      r.disp_batch = disp_batch;
      rows.push_back(r);

      table.row()
          .cell(nth)
          .cell(static_cast<long long>(k))
          .cell(r.us_seq, 1)
          .cell(r.us_ilv, 1)
          .cell(r.us_seq / (r.us_ilv > 0 ? r.us_ilv : 1e-300), 2)
          .cell(static_cast<unsigned>(disp_seq))
          .cell(static_cast<unsigned>(disp_batch));
    }
  }
  table.print();
  std::printf(
      "\nPer-RHS wall time; 'speedup-*' is sequential/batched throughput. A "
      "batch is ONE pool dispatch (k for sequential). "
      "Bitwise check vs sequential solves: %s.\n",
      all_exact ? "exact" : "FAILED");

  bool cg_exact = true;
  const std::vector<CgRow> cg_rows =
      cg_lockstep_rows(pool, a, b, max_k, reps, cg_exact);
  all_exact = all_exact && cg_exact;
  bench::Table cg_table({"threads", "k", "cg(us/column)", "cg_lockstep_gain"});
  for (const CgRow& r : cg_rows) {
    cg_table.row()
        .cell(1u)
        .cell(static_cast<long long>(r.k))
        .cell(r.us_per_column, 1)
        .cell(r.gain, 2);
  }
  std::printf("\nLockstep CG, %lld systems to 1e-10, k per pcg_lockstep "
              "call:\n",
              static_cast<long long>(max_k));
  cg_table.print();
  std::printf("Bitwise check vs per-column pcg: %s.\n",
              cg_exact ? "exact" : "FAILED");

  bool split_exact = true;
  const SplitRow split = lane_split_row(reps, split_exact);
  all_exact = all_exact && split_exact;
  bench::Table split_table({"grid", "k", "lane groups", "width-1(ms)",
                            "width-2(ms)", "cg_lane_split_gain"});
  split_table.row()
      .cell(static_cast<long long>(split.grid))
      .cell(static_cast<long long>(split.k))
      .cell(split.groups)
      .cell(split.ms_width1, 2)
      .cell(split.ms_width2, 2)
      .cell(split.gain, 2);
  std::printf("\nLane groups: one BatchDriver drain on a pinned serial plan, "
              "width-1 pool vs width-2 pool:\n");
  split_table.print();
  std::printf("Bitwise check vs per-column pcg: %s.\n",
              split_exact ? "exact" : "FAILED");

  bool wave_exact = true;
  const WaveRow wave = wavefront_row(pool, wave_exact);
  all_exact = all_exact && wave_exact;
  bench::Table wave_table({"grid", "epochs/order", "source(us)",
                           "wavefront(us)", "wavefront_gain", "locked in"});
  wave_table.row()
      .cell(static_cast<long long>(wave.grid))
      .cell(wave.epochs)
      .cell(wave.us_source, 1)
      .cell(wave.us_wavefront, 1)
      .cell(wave.gain, 2)
      .cell(wave.winner);
  std::printf("\nWavefront walk: single-RHS solve() on a serial plan over "
              "ILU(0) of I + 0.35 K, the order race's best per order:\n");
  wave_table.print();
  std::printf("Bitwise check vs sequential solves: %s.\n",
              wave_exact ? "exact" : "FAILED");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"batch_solve\",\n"
        << "  \"machine\": "
        << bench::machine_json(sp::kernels::to_string(
               sp::kernels::dispatched_isa()))
        << ",\n  \"grid\": " << grid << ",\n  \"rows\": " << n << ",\n"
        << "  \"bitwise_exact\": " << (all_exact ? "true" : "false")
        << ",\n  \"layout\": \"" << sp::to_string(layout)
        << "\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"threads\": " << r.threads << ", \"k\": " << r.k
          << ", \"us_per_rhs_seq\": " << r.us_seq
          << ", \"us_per_rhs_batch_ilv\": " << r.us_ilv
          << ", \"speedup_ilv\": "
          << r.us_seq / (r.us_ilv > 0 ? r.us_ilv : 1e-300)
          << ", \"dispatches_seq\": " << r.disp_seq
          << ", \"dispatches_batch\": " << r.disp_batch << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"cg_lockstep\": [\n";
    for (std::size_t i = 0; i < cg_rows.size(); ++i) {
      const CgRow& r = cg_rows[i];
      out << "    {\"threads\": 1, \"k\": " << r.k
          << ", \"us_per_column\": " << r.us_per_column
          << ", \"cg_lockstep_gain\": " << r.gain << "}"
          << (i + 1 < cg_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"cg_lane_split\": [\n"
        << "    {\"threads\": 2, \"grid\": " << split.grid
        << ", \"k\": " << split.k << ", \"lane_groups\": " << split.groups
        << ", \"ms_width1\": " << split.ms_width1
        << ", \"ms_width2\": " << split.ms_width2
        << ", \"cg_lane_split_gain\": " << split.gain << "}\n  ],\n"
        << "  \"wavefront\": [\n"
        << "    {\"threads\": 1, \"grid\": " << wave.grid
        << ", \"epochs\": " << wave.epochs
        << ", \"us_source\": " << wave.us_source
        << ", \"us_wavefront\": " << wave.us_wavefront
        << ", \"wavefront_gain\": " << wave.gain << ", \"order\": \""
        << wave.winner << "\"}\n  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_exact ? 0 : 1;
}
