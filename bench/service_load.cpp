// service_load — measures the multi-tenant solve service under load.
//
// Three five-point tenants of descending size share one solve::Service.
// The harness runs three phases:
//
//   sync     — one client, one job at a time through Service::solve():
//              the no-batching, no-pipelining reference rate. Measured
//              in-run so it divides out the machine.
//   burst    — open-loop flood: every job of the round-robin schedule is
//              submitted up front (arrival rate >> service rate), then
//              the drain is timed. The scheduler packs same-matrix jobs
//              into strips, each one lockstep CG solve, so jobs/sec here
//              over jobs/sec sync is the served batching gain
//              ("batch_gain" — the ratio the perf gate holds), and
//              jobs/strip (ServiceReport strip_jobs / strips over the
//              burst) says how wide those strips ran.
//   overload — a deliberately small bounded queue under the shed-oldest
//              policy with per-job deadlines: checks the service keeps
//              exact accounting (every job terminal, shed + expired +
//              solved + rejected + failed == submitted) while drowning.
//
// `--json <path>` writes BENCH_service.json for CI; the artifact carries
// jobs/sec for both phases, the service's own p50/p99/max latency
// telemetry, batch_gain, tail_containment (p50/p99), and the overload
// accounting verdict the gate re-checks.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "benchsupport/env.hpp"
#include "benchsupport/table.hpp"
#include "benchsupport/timer.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/service.hpp"

namespace bench = pdx::bench;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using pdx::index_t;

namespace {

struct Tenants {
  std::vector<sp::Csr> mats;
  std::vector<solve::MatrixId> ids;
};

Tenants register_tenants(solve::Service& svc, const std::vector<int>& grids) {
  Tenants t;
  for (int g : grids) {
    t.mats.push_back(gen::five_point(g, g));
    t.ids.push_back(svc.register_matrix(t.mats.back()));
  }
  return t;
}

/// One warm solve per tenant so plan builds (cache misses) happen outside
/// every timed window — the serving steady state is what's measured.
void warm(solve::Service& svc, const Tenants& t) {
  for (std::size_t i = 0; i < t.ids.size(); ++i) {
    const index_t n = t.mats[i].rows;
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const solve::JobResult res = svc.solve(t.ids[i], b, x);
    if (res.outcome != solve::JobOutcome::kSolved) {
      std::fprintf(stderr, "warm solve failed: %s\n", res.error.c_str());
      std::exit(1);
    }
  }
}

std::vector<double> rhs_for(const sp::Csr& m, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> b(static_cast<std::size_t>(m.rows));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::cout << bench::environment_banner("service_load (multi-tenant serving)")
            << "\n";
  const bool quick = bench::quick_mode();
  const unsigned max_procs = bench::default_procs();
  const int reps = bench::default_reps();
  const std::vector<int> grids =
      quick ? std::vector<int>{24, 20, 16} : std::vector<int>{48, 40, 32};
  const int jobs_sync = quick ? 30 : 120;
  const int jobs_burst = quick ? 60 : 240;
  const int jobs_overload = quick ? 80 : 300;

  std::vector<unsigned> thread_counts{1};
  if (max_procs >= 2) thread_counts.push_back(2);
  if (max_procs > 2) thread_counts.push_back(max_procs);

  struct Row {
    unsigned threads = 0;
    double sync_jps = 0.0;
    double burst_jps = 0.0;
    double jobs_per_strip = 0.0;
    solve::ServiceReport burst_rep;
  };
  std::vector<Row> rows;

  for (unsigned nth : thread_counts) {
    rt::ThreadPool pool(nth);
    Row row;
    row.threads = nth;

    // Both phases run `reps` times; the best (highest jobs/sec) sample of
    // each is the row — open-loop serving is scheduler-jitter-heavy, and
    // best-of-reps is how every other harness here de-noises.
    for (int rep = 0; rep < reps; ++rep) {
      // ---- Phase 1: one-at-a-time reference rate -----------------------
      {
        solve::ServiceOptions opts;
        opts.solver.nthreads = nth;
        solve::Service svc(pool, opts);
        const Tenants t = register_tenants(svc, grids);
        warm(svc, t);
        std::vector<std::vector<double>> xs;
        for (const sp::Csr& m : t.mats) {
          xs.emplace_back(static_cast<std::size_t>(m.rows), 0.0);
        }
        bench::WallTimer timer;
        for (int j = 0; j < jobs_sync; ++j) {
          const std::size_t i = static_cast<std::size_t>(j) % t.ids.size();
          const auto b =
              rhs_for(t.mats[i], 100 + static_cast<std::uint64_t>(j));
          const solve::JobResult res = svc.solve(t.ids[i], b, xs[i]);
          if (res.outcome != solve::JobOutcome::kSolved) {
            std::fprintf(stderr, "sync job %d: %s\n", j, res.error.c_str());
            return 1;
          }
        }
        row.sync_jps = std::max(row.sync_jps, jobs_sync / (timer.millis() / 1e3));
        svc.shutdown(10000.0);
      }

      // ---- Phase 2: open-loop burst ------------------------------------
      {
        solve::ServiceOptions opts;
        opts.solver.nthreads = nth;
        opts.queue_capacity = static_cast<std::size_t>(jobs_burst) + 8;
        solve::Service svc(pool, opts);
        const Tenants t = register_tenants(svc, grids);
        warm(svc, t);
        const solve::ServiceReport before = svc.report();
        std::vector<solve::JobHandle> jobs;
        jobs.reserve(static_cast<std::size_t>(jobs_burst));
        bench::WallTimer timer;
        for (int j = 0; j < jobs_burst; ++j) {
          const std::size_t i = static_cast<std::size_t>(j) % t.ids.size();
          jobs.push_back(svc.submit(
              t.ids[i],
              rhs_for(t.mats[i], 500 + static_cast<std::uint64_t>(j))));
        }
        for (int j = 0; j < jobs_burst; ++j) {
          const solve::JobResult res =
              jobs[static_cast<std::size_t>(j)]->wait();
          if (res.outcome != solve::JobOutcome::kSolved) {
            std::fprintf(stderr, "burst job %d: %s\n", j, res.error.c_str());
            return 1;
          }
        }
        const double jps = jobs_burst / (timer.millis() / 1e3);
        if (jps > row.burst_jps) {
          row.burst_jps = jps;
          row.burst_rep = svc.report();
          const std::uint64_t strips = row.burst_rep.strips - before.strips;
          row.jobs_per_strip =
              strips ? static_cast<double>(row.burst_rep.strip_jobs -
                                           before.strip_jobs) /
                           static_cast<double>(strips)
                     : 0.0;
        }
        svc.shutdown(10000.0);
      }
    }
    rows.push_back(std::move(row));
  }

  // ---- Phase 3: overload accounting under shed + deadlines -------------
  solve::ServiceReport over_rep;
  bool over_accounted = false;
  {
    rt::ThreadPool pool(max_procs);
    solve::ServiceOptions opts;
    opts.queue_capacity = 16;
    opts.backpressure = solve::BackpressurePolicy::kShedOldest;
    opts.default_timeout_ms = quick ? 250.0 : 1000.0;
    solve::Service svc(pool, opts);
    const Tenants t = register_tenants(svc, grids);
    warm(svc, t);
    std::vector<solve::JobHandle> jobs;
    jobs.reserve(static_cast<std::size_t>(jobs_overload));
    for (int j = 0; j < jobs_overload; ++j) {
      const std::size_t i = static_cast<std::size_t>(j) % t.ids.size();
      jobs.push_back(svc.submit(
          t.ids[i], rhs_for(t.mats[i], 900 + static_cast<std::uint64_t>(j))));
    }
    std::uint64_t terminal = 0;
    for (const solve::JobHandle& job : jobs) {
      if (job->wait().outcome != solve::JobOutcome::kPending) ++terminal;
    }
    svc.shutdown(10000.0);
    over_rep = svc.report();
    // +3 warm solves: every submitted job — warm, solved, shed, expired —
    // must land in exactly one terminal bucket.
    over_accounted =
        terminal == static_cast<std::uint64_t>(jobs_overload) &&
        over_rep.submitted == static_cast<std::uint64_t>(jobs_overload) + 3 &&
        over_rep.submitted == over_rep.solved + over_rep.expired +
                                  over_rep.rejected + over_rep.failed;
  }

  bench::Table table({"threads", "tenants", "sync(jobs/s)", "burst(jobs/s)",
                      "batch_gain", "jobs/strip", "p50(ms)", "p99(ms)",
                      "max(ms)", "high-water"});
  for (const Row& r : rows) {
    table.row()
        .cell(r.threads)
        .cell(static_cast<unsigned>(grids.size()))
        .cell(r.sync_jps, 1)
        .cell(r.burst_jps, 1)
        .cell(r.sync_jps > 0 ? r.burst_jps / r.sync_jps : 0.0, 2)
        .cell(r.jobs_per_strip, 1)
        .cell(r.burst_rep.p50_ms, 2)
        .cell(r.burst_rep.p99_ms, 2)
        .cell(r.burst_rep.max_ms, 2)
        .cell(static_cast<unsigned>(r.burst_rep.queue_high_water));
  }
  table.print();
  std::printf(
      "\noverload (queue 16, shed-oldest, %.0f ms deadlines): %llu submitted "
      "-> %llu solved, %llu shed, %llu expired, %llu rejected, %llu failed "
      "(accounting %s)\n",
      quick ? 250.0 : 1000.0,
      static_cast<unsigned long long>(over_rep.submitted),
      static_cast<unsigned long long>(over_rep.solved),
      static_cast<unsigned long long>(over_rep.shed),
      static_cast<unsigned long long>(over_rep.expired),
      static_cast<unsigned long long>(over_rep.rejected),
      static_cast<unsigned long long>(over_rep.failed),
      over_accounted ? "exact" : "BROKEN");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"service_load\",\n"
        << "  \"accounting_exact\": " << (over_accounted ? "true" : "false")
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const double gain = r.sync_jps > 0 ? r.burst_jps / r.sync_jps : 0.0;
      const double tail =
          r.burst_rep.p99_ms > 0 ? r.burst_rep.p50_ms / r.burst_rep.p99_ms
                                 : 0.0;
      out << "    {\"threads\": " << r.threads
          << ", \"tenants\": " << grids.size()
          << ", \"jobs_per_sec_sync\": " << r.sync_jps
          << ", \"jobs_per_sec_burst\": " << r.burst_jps
          << ", \"batch_gain\": " << gain
          << ", \"jobs_per_strip\": " << r.jobs_per_strip
          << ", \"p50_ms\": " << r.burst_rep.p50_ms
          << ", \"p99_ms\": " << r.burst_rep.p99_ms
          << ", \"max_ms\": " << r.burst_rep.max_ms
          << ", \"tail_containment\": " << tail
          << ", \"queue_high_water\": " << r.burst_rep.queue_high_water
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"overload\": {\"submitted\": " << over_rep.submitted
        << ", \"solved\": " << over_rep.solved
        << ", \"shed\": " << over_rep.shed
        << ", \"expired\": " << over_rep.expired
        << ", \"rejected\": " << over_rep.rejected
        << ", \"failed\": " << over_rep.failed << "}\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return over_accounted ? 0 : 1;
}
