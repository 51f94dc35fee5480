// batch_server — the multi-tenant serving loop solve::Service exists for.
//
// Two matrices are registered as tenants of one Service; solve requests
// for both arrive interleaved. The service's scheduler packs same-matrix
// jobs into strips and drains each strip through that tenant's cached
// BatchDriver — the plan-sharing, screen-batching machinery of the lower
// layers, now behind admission control, per-job deadlines, and a
// per-matrix circuit breaker (DESIGN.md §15).
//
// The overload story is part of the demo: the queue is bounded, and the
// flags pick what happens when it fills.
//
// Usage: ./examples/batch_server [--backpressure=block|shed|reject]
//                                [--deadline-ms=D] [--queue-capacity=N]
//        (PDX_QUICK=1 shrinks the problem — the CI smoke mode.)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchsupport/env.hpp"
#include "benchsupport/timer.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/service.hpp"

namespace gen = pdx::gen;
namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using pdx::index_t;

int main(int argc, char** argv) {
  const bool quick = pdx::bench::quick_mode();

  solve::ServiceOptions opts;
  opts.queue_capacity = 128;
  opts.backpressure = solve::BackpressurePolicy::kBlock;
  opts.max_batch = 16;
  opts.solver.rel_tolerance = 1e-10;
  double deadline_ms = 0.0;  // 0 = none
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backpressure=", 0) == 0) {
      const std::string v = arg.substr(15);
      if (v == "block") {
        opts.backpressure = solve::BackpressurePolicy::kBlock;
      } else if (v == "shed") {
        opts.backpressure = solve::BackpressurePolicy::kShedOldest;
      } else if (v == "reject") {
        opts.backpressure = solve::BackpressurePolicy::kReject;
      } else {
        std::fprintf(stderr, "unknown backpressure policy: %s\n", v.c_str());
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--queue-capacity=", 0) == 0) {
      opts.queue_capacity =
          static_cast<std::size_t>(std::atoll(arg.c_str() + 17));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const int grid_a = quick ? 32 : 48;
  const int grid_b = quick ? 24 : 40;
  sp::Csr a = gen::five_point(grid_a, grid_a);
  const sp::Csr b_mat = gen::five_point(grid_b, grid_b);

  rt::ThreadPool pool;  // hardware width; the service is its only caller
  solve::Service svc(pool, opts);
  const solve::MatrixId ta = svc.register_matrix(a);
  const solve::MatrixId tb = svc.register_matrix(b_mat);

  std::printf(
      "batch_server: 2 tenants (%lld and %lld equations), %u threads, "
      "queue %zu, policy %s, deadline %s\n",
      static_cast<long long>(a.rows), static_cast<long long>(b_mat.rows),
      pool.width(), opts.queue_capacity, to_string(opts.backpressure),
      deadline_ms > 0 ? (std::to_string(deadline_ms) + " ms").c_str()
                      : "none");

  // Interleaved traffic: waves alternate tenants so the scheduler's
  // same-matrix strip packing has something to do.
  gen::SplitMix64 rng(2026);
  const int waves = quick ? 3 : 5;
  const int per_wave = quick ? 6 : 10;
  std::vector<solve::JobHandle> jobs;
  std::vector<double> rhs(static_cast<std::size_t>(a.rows));

  pdx::bench::WallTimer wall;
  for (int w = 0; w < waves; ++w) {
    for (int j = 0; j < per_wave; ++j) {
      const bool to_a = (w + j) % 2 == 0;
      const index_t n = to_a ? a.rows : b_mat.rows;
      for (index_t i = 0; i < n; ++i) {
        rhs[static_cast<std::size_t>(i)] = rng.next_double(-1.0, 1.0);
      }
      jobs.push_back(svc.submit(
          to_a ? ta : tb,
          std::span<const double>(rhs.data(), static_cast<std::size_t>(n)),
          deadline_ms));
    }
  }

  std::size_t solved = 0, expired = 0, rejected = 0, failed = 0;
  const auto tally = [&](const solve::JobResult& res) {
    switch (res.outcome) {
      case solve::JobOutcome::kSolved: ++solved; break;
      case solve::JobOutcome::kExpired: ++expired; break;
      case solve::JobOutcome::kRejected: ++rejected; break;
      default:
        ++failed;
        std::printf("job failed: %s\n", res.error.c_str());
        break;
    }
  };
  for (const solve::JobHandle& job : jobs) tally(job->wait());
  // Each tenant's latest strip drain: once its plan settles on serial, a
  // strip of at least 2 * kLaneMin jobs splits into lane groups that run
  // as one doall across the pool.
  for (solve::MatrixId id : {ta, tb}) {
    std::printf("tenant %llu: last drain ran in %u lane group(s)\n",
                static_cast<unsigned long long>(id),
                svc.matrix_info(id).lane_groups);
  }

  // Operator update mid-service: new VALUES over tenant A's (now live)
  // unchanged pattern are adopted as a value-only plan refresh — numeric
  // refactor through the persistent FactorPlan plus a packed-stream
  // refresh, no rebuild — before A's next strip.
  for (std::size_t k = 0; k < a.val.size(); ++k) {
    a.val[k] *= 1.0 + 0.1 * ((k % 7) / 7.0);
  }
  svc.update_values(ta, a);
  for (index_t i = 0; i < a.rows; ++i) {
    rhs[static_cast<std::size_t>(i)] = rng.next_double(-1.0, 1.0);
  }
  jobs.push_back(svc.submit(
      ta, std::span<const double>(rhs.data(),
                                  static_cast<std::size_t>(a.rows)),
      deadline_ms));
  tally(jobs.back()->wait());
  const double ms = wall.millis();

  const solve::ServiceReport rep = svc.report();
  std::printf(
      "%zu jobs in %.1f ms: %zu solved, %zu expired, %zu rejected, %zu "
      "failed\n",
      jobs.size(), ms, solved, expired, rejected, failed);
  std::printf(
      "queue high-water %zu/%zu; plan cache %llu hits / %llu misses / %llu "
      "evictions; %llu value refresh(es)\n",
      rep.queue_high_water, opts.queue_capacity,
      static_cast<unsigned long long>(rep.cache_hits),
      static_cast<unsigned long long>(rep.cache_misses),
      static_cast<unsigned long long>(rep.cache_evictions),
      static_cast<unsigned long long>(rep.value_refreshes));
  std::printf("latency p50 %.2f ms, p99 %.2f ms, max %.2f ms\n", rep.p50_ms,
              rep.p99_ms, rep.max_ms);
  for (solve::MatrixId id : {ta, tb}) {
    const solve::MatrixInfo mi = svc.matrix_info(id);
    std::printf("tenant %llu: plans %s, strategy %s, breaker %s\n",
                static_cast<unsigned long long>(id),
                mi.live ? "live" : "cold", pdx::core::to_string(mi.strategy),
                to_string(mi.breaker));
  }

  if (!svc.shutdown(/*drain_timeout_ms=*/10000.0)) {
    std::printf("shutdown did not drain — FAIL\n");
    return 1;
  }

  // Accounting must be exact: every job ended in exactly one state, and
  // without a deadline (the smoke configuration) everything solves.
  if (rep.submitted != rep.solved + rep.expired + rep.rejected + rep.failed) {
    std::printf("accounting mismatch — FAIL\n");
    return 1;
  }
  if (deadline_ms <= 0 &&
      opts.backpressure == solve::BackpressurePolicy::kBlock && solved != jobs.size()) {
    std::printf("expected every job solved under block policy — FAIL\n");
    return 1;
  }
  if (rep.value_refreshes < 1) {
    std::printf("value-only refresh did not happen — FAIL\n");
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
