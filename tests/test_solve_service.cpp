// Tests for the multi-tenant solve service (DESIGN.md §15): admission
// control under every backpressure policy, deadline enforcement at
// submission and at dequeue, graceful and hard shutdown, the pattern-keyed
// plan cache (LRU eviction + value-only refresh), exact job accounting,
// and the chaos matrix — injected faults on one tenant must leave other
// tenants' answers bitwise untouched while the per-matrix circuit breaker
// trips, degrades to the exact serial fallback, and recovers.
//
// This file runs in the TSan and ASan+UBSan CI matrices: the service's
// scheduler thread, client submitters, and the pool's workers are all
// live here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cmath>

#include "core/advisor.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/failure.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/service.hpp"
#include "solve/service_c.h"
#include "solve/vec.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
using pdx::index_t;
using solve::BackpressurePolicy;
using solve::JobOutcome;
using solve::RejectReason;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tridiagonal SPD chain: every row depends on the previous one, so
/// injected faults and stalls always have downstream waiters under the
/// parallel executors.
sp::Csr tridiag(index_t n) {
  sp::CsrBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) b.add(i, i - 1, -1.0);
    b.add(i, i, 4.0);
    if (i < n - 1) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

double relative_residual(const sp::Csr& a, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  sp::spmv(a, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double bnorm = solve::norm2(b);
  return solve::norm2(r) / (bnorm > 0.0 ? bnorm : 1.0);
}

/// Options for the chaos tests: the doacross executor pinned (so faults
/// fire inside a genuine parallel region), no calibration or tuning-cache
/// consultation (so two Service instances execute identically).
solve::ServiceOptions chaos_options() {
  solve::ServiceOptions o;
  o.solver.strategy = sp::ExecutionStrategy::kDoacross;
  o.solver.nthreads = 2;
  o.solver.calibration_epochs = 0;
  o.solver.use_tuning_cache = false;
  return o;
}

void expect_exact_accounting(const solve::ServiceReport& rep) {
  EXPECT_EQ(rep.submitted,
            rep.solved + rep.expired + rep.rejected + rep.failed);
  EXPECT_LE(rep.shed, rep.rejected);
}

}  // namespace

// ---------------------------------------------------------------- basics

TEST(Service, SolvesAndMeetsTolerance) {
  const sp::Csr a = gen::five_point(16, 16);
  solve::Service svc(pool(), {});
  const solve::MatrixId id = svc.register_matrix(a);

  std::vector<double> x(static_cast<std::size_t>(a.rows));
  for (int k = 0; k < 3; ++k) {
    const auto b = random_vec(a.rows, 100 + static_cast<std::uint64_t>(k));
    const solve::JobResult res = svc.solve(id, b, x);
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_FALSE(res.degraded);
    EXPECT_LE(relative_residual(a, b, x), 1e-8);
    EXPECT_GT(res.total_ms, 0.0);
  }
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.submitted, 3u);
  EXPECT_EQ(rep.solved, 3u);
  EXPECT_EQ(rep.latency_samples, 3u);
  EXPECT_GT(rep.p99_ms, 0.0);
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(10000.0));
}

TEST(Service, ConcurrentClientsAllSolve) {
  const sp::Csr a = gen::five_point(12, 12);
  solve::ServiceOptions opts;
  opts.queue_capacity = 64;
  solve::Service svc(pool(), opts);
  const solve::MatrixId id = svc.register_matrix(a);

  constexpr int kClients = 4;
  constexpr int kJobsEach = 8;
  std::atomic<int> solved{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> x(static_cast<std::size_t>(a.rows));
      for (int k = 0; k < kJobsEach; ++k) {
        const auto b =
            random_vec(a.rows, static_cast<std::uint64_t>(c * 1000 + k));
        const solve::JobResult res = svc.solve(id, b, x);
        if (res.outcome == JobOutcome::kSolved &&
            relative_residual(a, b, x) <= 1e-8) {
          solved.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(solved.load(), kClients * kJobsEach);
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.solved, static_cast<std::uint64_t>(kClients * kJobsEach));
  EXPECT_LE(rep.queue_high_water, opts.queue_capacity);
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(10000.0));
}

TEST(Service, UnknownMatrixAndBadSpanAreCallerBugs) {
  solve::Service svc(pool(), {});
  const solve::MatrixId id = svc.register_matrix(gen::five_point(4, 4));
  std::vector<double> short_b(3, 1.0);
  EXPECT_THROW(svc.submit(99, short_b), std::invalid_argument);
  EXPECT_THROW(svc.submit(id, short_b), std::invalid_argument);
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.submitted, 0u);  // caller bugs are never enqueued
}

// -------------------------------------------------------------- deadlines

TEST(Service, ExpiredAtSubmissionNeverRuns) {
  solve::Service svc(pool(), {});
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 7);

  const solve::JobHandle job = svc.submit_at(
      id, b, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  const solve::JobResult res = job->wait();
  EXPECT_EQ(res.outcome, JobOutcome::kExpired);
  EXPECT_NE(res.error.find("at submission"), std::string::npos);

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.submitted, 1u);
  EXPECT_EQ(rep.expired, 1u);
  EXPECT_EQ(rep.cache_misses, 0u);  // no plan was ever built for it
  expect_exact_accounting(rep);
}

TEST(Service, DeadlineExpiresWhileQueued) {
  solve::Service svc(pool(), {});
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 8);

  svc.pause();  // hold the job in the queue past its deadline
  const solve::JobHandle job = svc.submit(id, b, /*timeout_ms=*/30.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  svc.resume();

  const solve::JobResult res = job->wait();
  EXPECT_EQ(res.outcome, JobOutcome::kExpired);
  EXPECT_NE(res.error.find("while queued"), std::string::npos);
  expect_exact_accounting(svc.report());
}

TEST(Service, HugeAndInfiniteTimeoutsNeverExpire) {
  // A timeout past the clock's range saturates instead of wrapping the
  // deadline into the past: the job and the drain simply never time out.
  const sp::Csr a = gen::five_point(8, 8);
  solve::Service svc(pool(), {});
  const solve::MatrixId id = svc.register_matrix(a);

  std::vector<double> x(static_cast<std::size_t>(a.rows));
  for (double timeout_ms : {kInf, 1e13, 1e300, std::nan("")}) {
    const auto b = random_vec(a.rows, 9);
    const solve::JobResult res = svc.solve(id, b, x, timeout_ms);
    EXPECT_EQ(res.outcome, JobOutcome::kSolved)
        << "timeout " << timeout_ms << ": " << res.error;
  }

  svc.pause();  // queued when the drain starts
  std::vector<solve::JobHandle> jobs;
  for (int k = 0; k < 4; ++k) {
    jobs.push_back(svc.submit(id, random_vec(a.rows, 50 + k), kInf));
  }
  EXPECT_TRUE(svc.shutdown(/*drain_timeout_ms=*/kInf));
  for (const auto& job : jobs) {
    const solve::JobResult res = job->wait();
    EXPECT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
  }
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.solved, 8u);
  EXPECT_EQ(rep.expired, 0u);
  expect_exact_accounting(rep);
}

// ------------------------------------------------------------ backpressure

TEST(Service, RejectPolicyFailsNewJobWhenFull) {
  solve::ServiceOptions opts;
  opts.queue_capacity = 2;
  opts.backpressure = BackpressurePolicy::kReject;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 9);

  svc.pause();
  const solve::JobHandle j0 = svc.submit(id, b);
  const solve::JobHandle j1 = svc.submit(id, b);
  const solve::JobHandle j2 = svc.submit(id, b);  // queue full
  EXPECT_TRUE(j2->done());  // verdict delivered without any solve
  const solve::JobResult r2 = j2->wait();
  EXPECT_EQ(r2.outcome, JobOutcome::kRejected);
  EXPECT_EQ(r2.reject_reason, RejectReason::kQueueFull);
  svc.resume();

  EXPECT_EQ(j0->wait().outcome, JobOutcome::kSolved);
  EXPECT_EQ(j1->wait().outcome, JobOutcome::kSolved);
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.queue_high_water, 2u);
  expect_exact_accounting(rep);
}

TEST(Service, ShedOldestPolicyEvictsQueueHead) {
  solve::ServiceOptions opts;
  opts.queue_capacity = 2;
  opts.backpressure = BackpressurePolicy::kShedOldest;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 10);

  svc.pause();
  const solve::JobHandle j0 = svc.submit(id, b);
  const solve::JobHandle j1 = svc.submit(id, b);
  const solve::JobHandle j2 = svc.submit(id, b);  // sheds j0, queues j2
  EXPECT_TRUE(j0->done());
  const solve::JobResult r0 = j0->wait();
  EXPECT_EQ(r0.outcome, JobOutcome::kRejected);
  EXPECT_EQ(r0.reject_reason, RejectReason::kShed);
  svc.resume();

  EXPECT_EQ(j1->wait().outcome, JobOutcome::kSolved);
  EXPECT_EQ(j2->wait().outcome, JobOutcome::kSolved);
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.rejected, 1u);
  expect_exact_accounting(rep);
}

TEST(Service, BlockPolicyBlocksSubmitterUntilSpace) {
  solve::ServiceOptions opts;
  opts.queue_capacity = 1;
  opts.backpressure = BackpressurePolicy::kBlock;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 11);

  svc.pause();
  const solve::JobHandle j0 = svc.submit(id, b);

  std::atomic<bool> admitted{false};
  solve::JobHandle j1;
  std::thread blocked([&] {
    j1 = svc.submit(id, b);  // must block: queue is full and paused
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));

  svc.resume();  // scheduler drains j0, freeing space for j1
  blocked.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(j0->wait().outcome, JobOutcome::kSolved);
  EXPECT_EQ(j1->wait().outcome, JobOutcome::kSolved);
  expect_exact_accounting(svc.report());
}

TEST(Service, BlockPolicyExpiresDeadlineWhileBlocked) {
  solve::ServiceOptions opts;
  opts.queue_capacity = 1;
  opts.backpressure = BackpressurePolicy::kBlock;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 12);

  svc.pause();
  const solve::JobHandle j0 = svc.submit(id, b);
  // Queue full, scheduler paused: this submit blocks on admission until
  // its own deadline passes, then comes back expired — bounded, not hung.
  const solve::JobHandle j1 = svc.submit(id, b, /*timeout_ms=*/60.0);
  const solve::JobResult r1 = j1->wait();
  EXPECT_EQ(r1.outcome, JobOutcome::kExpired);
  EXPECT_NE(r1.error.find("admission"), std::string::npos);

  svc.resume();
  EXPECT_EQ(j0->wait().outcome, JobOutcome::kSolved);
  expect_exact_accounting(svc.report());
}

// ---------------------------------------------------------------- shutdown

TEST(Service, GracefulShutdownDrainsInFlightAndRefusesNew) {
  const sp::Csr a = gen::five_point(12, 12);
  solve::Service svc(pool(), {});
  const solve::MatrixId id = svc.register_matrix(a);

  std::vector<solve::JobHandle> jobs;
  for (int k = 0; k < 6; ++k) {
    jobs.push_back(svc.submit(id, random_vec(a.rows, 20 + k)));
  }
  EXPECT_TRUE(svc.shutdown(/*drain_timeout_ms=*/20000.0));
  for (const auto& job : jobs) {
    EXPECT_EQ(job->wait().outcome, JobOutcome::kSolved);
  }

  // After shutdown: submissions come back rejected (not thrown — overload
  // and lifecycle are job outcomes), registration is a logic error.
  const solve::JobHandle late = svc.submit(id, random_vec(a.rows, 30));
  const solve::JobResult res = late->wait();
  EXPECT_EQ(res.outcome, JobOutcome::kRejected);
  EXPECT_EQ(res.reject_reason, RejectReason::kShutdown);
  EXPECT_THROW(svc.register_matrix(a), std::logic_error);
  EXPECT_TRUE(svc.shutdown(0.0));  // idempotent

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.solved, 6u);
  EXPECT_EQ(rep.rejected, 1u);
  expect_exact_accounting(rep);
}

TEST(Service, HardShutdownAccountsForEveryQueuedJob) {
  const sp::Csr a = gen::five_point(12, 12);
  solve::Service svc(pool(), {});
  const solve::MatrixId id = svc.register_matrix(a);

  svc.pause();
  std::vector<solve::JobHandle> jobs;
  for (int k = 0; k < 5; ++k) {
    jobs.push_back(svc.submit(id, random_vec(a.rows, 40 + k)));
  }
  const bool drained = svc.shutdown(/*drain_timeout_ms=*/0.0);

  // Zero drain budget: whatever did not get solved must come back
  // rejected(shutdown) — never lost, never pending.
  std::uint64_t solved = 0, rejected = 0;
  for (const auto& job : jobs) {
    const solve::JobResult res = job->wait();
    if (res.outcome == JobOutcome::kSolved) {
      ++solved;
    } else {
      ASSERT_EQ(res.outcome, JobOutcome::kRejected) << res.error;
      EXPECT_EQ(res.reject_reason, RejectReason::kShutdown);
      ++rejected;
    }
  }
  EXPECT_EQ(solved + rejected, 5u);
  EXPECT_EQ(drained, rejected == 0);
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.solved, solved);
  EXPECT_EQ(rep.rejected, rejected);
  expect_exact_accounting(rep);
}

TEST(Service, EveryJobEndsInExactlyOneTerminalState) {
  // The acceptance criterion, exercised under overload: a paused bounded
  // queue, the shed policy, immediate and short deadlines all at once.
  solve::ServiceOptions opts;
  opts.queue_capacity = 4;
  opts.backpressure = BackpressurePolicy::kShedOldest;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(10, 10);
  const solve::MatrixId id = svc.register_matrix(a);

  svc.pause();
  std::vector<solve::JobHandle> jobs;
  for (int k = 0; k < 12; ++k) {
    if (k % 4 == 3) {
      jobs.push_back(svc.submit_at(  // expired at submission
          id, random_vec(a.rows, 60 + k),
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1)));
    } else if (k % 4 == 2) {
      jobs.push_back(svc.submit(id, random_vec(a.rows, 60 + k),
                                /*timeout_ms=*/40.0));
    } else {
      jobs.push_back(svc.submit(id, random_vec(a.rows, 60 + k)));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(90));
  svc.resume();

  std::uint64_t counts[5] = {0, 0, 0, 0, 0};
  for (const auto& job : jobs) {
    const solve::JobResult res = job->wait();
    ASSERT_NE(res.outcome, JobOutcome::kPending);
    ++counts[static_cast<int>(res.outcome)];
  }
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.submitted, 12u);
  EXPECT_EQ(rep.solved, counts[static_cast<int>(JobOutcome::kSolved)]);
  EXPECT_EQ(rep.expired, counts[static_cast<int>(JobOutcome::kExpired)]);
  EXPECT_EQ(rep.rejected, counts[static_cast<int>(JobOutcome::kRejected)]);
  EXPECT_EQ(rep.failed, counts[static_cast<int>(JobOutcome::kFailed)]);
  EXPECT_GE(rep.expired, 3u);  // the three expired-at-submission jobs
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(10000.0));
}

// --------------------------------------------------------------- plan cache

TEST(Service, LruCapEvictsLeastRecentlyUsedPlans) {
  solve::ServiceOptions opts;
  opts.max_live_plans = 1;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(10, 10);
  const sp::Csr c = tridiag(128);
  const solve::MatrixId ta = svc.register_matrix(a);
  const solve::MatrixId tc = svc.register_matrix(c);

  std::vector<double> xa(static_cast<std::size_t>(a.rows));
  std::vector<double> xc(static_cast<std::size_t>(c.rows));
  const auto ba = random_vec(a.rows, 70);
  const auto bc = random_vec(c.rows, 71);

  EXPECT_EQ(svc.solve(ta, ba, xa).outcome, JobOutcome::kSolved);  // build A
  EXPECT_EQ(svc.solve(tc, bc, xc).outcome, JobOutcome::kSolved);  // evict A
  EXPECT_EQ(svc.solve(ta, ba, xa).outcome, JobOutcome::kSolved);  // evict C
  EXPECT_EQ(svc.solve(ta, ba, xa).outcome, JobOutcome::kSolved);  // hit A

  EXPECT_LE(relative_residual(a, ba, xa), 1e-8);
  EXPECT_LE(relative_residual(c, bc, xc), 1e-8);
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.cache_misses, 3u);
  EXPECT_EQ(rep.cache_evictions, 2u);
  EXPECT_EQ(rep.cache_hits, 1u);
  EXPECT_EQ(rep.live_plans, 1u);
  EXPECT_TRUE(svc.matrix_info(ta).live);
  EXPECT_FALSE(svc.matrix_info(tc).live);
}

TEST(Service, PatternHitAppliesValueOnlyRefresh) {
  solve::Service svc(pool(), {});
  sp::Csr a = gen::five_point(12, 12);
  const solve::MatrixId id = svc.register_matrix(a);
  std::vector<double> x(static_cast<std::size_t>(a.rows));

  const auto b0 = random_vec(a.rows, 80);
  ASSERT_EQ(svc.solve(id, b0, x).outcome, JobOutcome::kSolved);

  // Same pattern, new values: must be adopted as a refresh, not a rebuild,
  // and the next solve must answer against the NEW operator.
  for (double& v : a.val) v *= 1.75;
  svc.update_values(id, a);
  const auto b1 = random_vec(a.rows, 81);
  ASSERT_EQ(svc.solve(id, b1, x).outcome, JobOutcome::kSolved);
  EXPECT_LE(relative_residual(a, b1, x), 1e-8);

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.cache_misses, 1u);
  EXPECT_EQ(rep.value_refreshes, 1u);
  EXPECT_EQ(svc.matrix_info(id).refreshes, 1u);
}

TEST(Service, PatternChangeRebuildsPlans) {
  solve::Service svc(pool(), {});
  const sp::Csr a = gen::five_point(8, 8);  // n = 64
  const sp::Csr c = tridiag(64);            // same n, different stencil
  const solve::MatrixId id = svc.register_matrix(a);
  std::vector<double> x(static_cast<std::size_t>(a.rows));

  const auto b0 = random_vec(a.rows, 90);
  ASSERT_EQ(svc.solve(id, b0, x).outcome, JobOutcome::kSolved);

  svc.update_values(id, c);  // new pattern: plans invalidated
  const auto b1 = random_vec(c.rows, 91);
  ASSERT_EQ(svc.solve(id, b1, x).outcome, JobOutcome::kSolved);
  EXPECT_LE(relative_residual(c, b1, x), 1e-8);

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.cache_misses, 2u);
  EXPECT_EQ(rep.value_refreshes, 0u);
}

// -------------------------------------------------------------------- chaos

TEST(Service, ChaosFaultsOnTenantALeaveTenantBBitwiseUntouched) {
  const sp::Csr ma = tridiag(300);
  const sp::Csr mb = gen::five_point(20, 20);
  constexpr int kBJobs = 4;

  // Reference: tenant B's exact answers with no chaos anywhere.
  std::vector<std::vector<double>> ref(kBJobs);
  {
    solve::Service svc(pool(), chaos_options());
    (void)svc.register_matrix(ma);
    const solve::MatrixId tb = svc.register_matrix(mb);
    for (int k = 0; k < kBJobs; ++k) {
      const solve::JobHandle job =
          svc.submit(tb, random_vec(mb.rows, 500 + k));
      ASSERT_EQ(job->wait().outcome, JobOutcome::kSolved);
      const auto sol = job->solution();
      ref[k].assign(sol.begin(), sol.end());
    }
  }

  // Chaos: repeated injected worker faults inside tenant A's parallel
  // plan, driving A's breaker open, while tenant B keeps serving.
  solve::ServiceOptions opts = chaos_options();
  opts.breaker_threshold = 2;
  opts.breaker_backoff_ms = 60000.0;  // stays open for the whole test
  solve::Service svc(pool(), opts);
  const solve::MatrixId ta = svc.register_matrix(ma);
  const solve::MatrixId tb = svc.register_matrix(mb);
  rt::FaultInjector inj;
  svc.set_fault_injector(ta, &inj);
  const auto b_a = random_vec(ma.rows, 600);

  for (int k = 0; k < opts.breaker_threshold; ++k) {
    inj.arm_throw(rt::FaultInjector::kAnyTid, rt::FaultInjector::kAnyRow,
                  "injected chaos fault");
    const solve::JobHandle job = svc.submit(ta, b_a);
    const solve::JobResult res = job->wait();
    // The fault poisons A's parallel plan mid-drain; the preconditioner's
    // exact serial fallback finishes the job (§12), so the tenant sees a
    // degraded SOLVE, not a failure — and the breaker counts the
    // infrastructure loss underneath.
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_TRUE(res.degraded);
    EXPECT_LE(relative_residual(ma, b_a, job->solution()), 1e-8);
  }
  EXPECT_EQ(inj.faults_fired(), opts.breaker_threshold);
  EXPECT_EQ(svc.matrix_info(ta).breaker, solve::BreakerState::kOpen);

  // Tenant A now serves degraded-but-correct through the serial fallback
  // (which never sees the injector)...
  {
    const solve::JobHandle job = svc.submit(ta, b_a);
    const solve::JobResult res = job->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_TRUE(res.degraded);
    EXPECT_LE(relative_residual(ma, b_a, job->solution()), 1e-8);
  }

  // ...and tenant B's answers are bitwise identical to the no-chaos run.
  for (int k = 0; k < kBJobs; ++k) {
    const solve::JobHandle job = svc.submit(tb, random_vec(mb.rows, 500 + k));
    const solve::JobResult res = job->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_FALSE(res.degraded);
    const auto sol = job->solution();
    ASSERT_EQ(sol.size(), ref[k].size());
    for (std::size_t i = 0; i < sol.size(); ++i) {
      ASSERT_EQ(sol[i], ref[k][i]) << "tenant B diverged at row " << i
                                   << " of job " << k;
    }
  }

  const solve::ServiceReport rep = svc.report();
  EXPECT_GE(rep.breaker_trips, 1u);
  // threshold faulted jobs + one served while the breaker was open.
  EXPECT_EQ(rep.degraded_jobs,
            static_cast<std::uint64_t>(opts.breaker_threshold) + 1u);
  EXPECT_EQ(rep.failed, 0u);  // every chaos job still got an exact answer
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(20000.0));
}

TEST(Service, BreakerTripsDegradesAndRecovers) {
  solve::ServiceOptions opts = chaos_options();
  opts.breaker_threshold = 2;
  opts.breaker_backoff_ms = 400.0;
  solve::Service svc(pool(), opts);
  const sp::Csr a = tridiag(300);
  const solve::MatrixId id = svc.register_matrix(a);
  rt::FaultInjector inj;
  svc.set_fault_injector(id, &inj);
  const auto b = random_vec(a.rows, 700);

  // Two consecutive infrastructure failures (faults poison the plan; the
  // jobs themselves still solve exactly, degraded): closed -> open.
  for (int k = 0; k < 2; ++k) {
    inj.arm_throw();
    const solve::JobResult res = svc.submit(id, b)->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_TRUE(res.degraded);
  }
  solve::MatrixInfo mi = svc.matrix_info(id);
  EXPECT_EQ(mi.breaker, solve::BreakerState::kOpen);
  EXPECT_GE(mi.backoff_ms, opts.breaker_backoff_ms);

  // Open: immediately-following traffic is served degraded (fallback),
  // exactly (the factors are intact — §12).
  {
    const solve::JobHandle job = svc.submit(id, b);
    const solve::JobResult res = job->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_TRUE(res.degraded);
    EXPECT_LE(relative_residual(a, b, job->solution()), 1e-8);
  }

  // Backoff elapsed, injector quiet: the half-open probe rebuilds the
  // planned path, succeeds, and closes the breaker.
  inj.disarm();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  {
    const solve::JobHandle job = svc.submit(id, b);
    const solve::JobResult res = job->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_FALSE(res.degraded);
  }
  mi = svc.matrix_info(id);
  EXPECT_EQ(mi.breaker, solve::BreakerState::kClosed);
  EXPECT_EQ(mi.consecutive_failures, 0);

  const solve::ServiceReport rep = svc.report();
  EXPECT_GE(rep.breaker_trips, 1u);
  EXPECT_GE(rep.breaker_recoveries, 1u);
  EXPECT_EQ(rep.degraded_jobs, 3u);  // two faulted + one breaker-open
  EXPECT_EQ(rep.failed, 0u);
  expect_exact_accounting(rep);
}

TEST(Service, DegradedFallbackRacesItsWalkOrderWithoutTheTuningCache) {
  // The serial fallback keeps the caller's calibration budget, so its
  // single-RHS walks race source order against the wavefront walk; every
  // answer it serves across that race is bitwise the healthy planned
  // path's, and it neither reads nor writes the process-wide TuningCache.
  pdx::core::tuning_cache().clear();
  solve::ServiceOptions opts = chaos_options();
  opts.solver.calibration_epochs = 2;
  opts.solver.use_tuning_cache = true;
  opts.breaker_threshold = 1;
  opts.breaker_backoff_ms = 60000.0;  // no half-open probe in this test
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(24, 24);
  const solve::MatrixId id = svc.register_matrix(a);
  rt::FaultInjector inj;
  svc.set_fault_injector(id, &inj);
  const auto b = random_vec(a.rows, 910);

  const solve::JobHandle healthy = svc.submit(id, b);
  ASSERT_EQ(healthy->wait().outcome, JobOutcome::kSolved);
  const std::vector<double> ref(healthy->solution().begin(),
                                healthy->solution().end());
  inj.arm_throw();
  EXPECT_TRUE(svc.submit(id, b)->wait().degraded);
  inj.disarm();
  ASSERT_EQ(svc.matrix_info(id).breaker, solve::BreakerState::kOpen);

  const pdx::core::TuningCacheStats before =
      pdx::core::tuning_cache().stats();
  // Each CG iteration is one fused single-RHS solve on the scheduler
  // thread, so the first job alone spends the 2 × 2 order epochs.
  for (int k = 0; k < 3; ++k) {
    const solve::JobHandle job = svc.submit(id, b);
    const solve::JobResult res = job->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_TRUE(res.degraded);
    ASSERT_GE(res.report.iterations, 4) << "too few solves to race the order";
    const auto sol = job->solution();
    ASSERT_EQ(sol.size(), ref.size());
    for (std::size_t i = 0; i < sol.size(); ++i) {
      ASSERT_EQ(sol[i], ref[i]) << "job " << k << " row " << i;
    }
  }
  const pdx::core::TuningCacheStats after = pdx::core::tuning_cache().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.stores, before.stores);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(svc.report().failed, 0u);
  pdx::core::tuning_cache().clear();
}

TEST(Service, StallErrorCarriesStrategyAndMatrixContext) {
  solve::ServiceOptions opts = chaos_options();
  opts.solver.stall_budget = 8000;  // well past any healthy in-region wait
  // The refresh stall below must hit a PARALLEL numeric refactor — the
  // serial factor path has no peers to wedge, only the sleep valve.
  opts.solver.factor_strategy = sp::ExecutionStrategy::kDoacross;
  solve::Service svc(pool(), opts);
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  const solve::MatrixId id = svc.register_matrix(a);
  rt::FaultInjector inj;
  svc.set_fault_injector(id, &inj);
  const auto b = random_vec(n, 800);

  // Warm the plan so the stall hits live serving state, not a cold build.
  ASSERT_EQ(svc.submit(id, b)->wait().outcome, JobOutcome::kSolved);

  // A stall during a value-only refresh: the parallel refactor's watchdog
  // throws rt::StallError out of the plan-refresh path, and the service
  // must annotate it with the serving context (which executor, which
  // tenant) before it becomes the job-level error. The injector's escape
  // valve is deliberately huge: the watchdog burns spin ROUNDS, not wall
  // time, and on an oversubscribed CI box each post-pause round is a
  // yield that can cost a scheduling quantum — the valve must stay far
  // above the budget's worst-case burn or the stall resolves itself and
  // the test goes flaky.
  sp::Csr scaled = a;
  for (double& v : scaled.val) v *= 1.25;
  svc.update_values(id, scaled);
  inj.arm_stall(rt::FaultInjector::kAnyTid, n / 2, /*max_stall_ms=*/240000);
  const solve::JobHandle job = svc.submit(id, b);
  const solve::JobResult res = job->wait();
  ASSERT_EQ(res.outcome, JobOutcome::kFailed);
  EXPECT_NE(res.error.find("stall watchdog"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("strategy doacross"), std::string::npos)
      << res.error;
  EXPECT_NE(res.error.find("matrix " + std::to_string(id)), std::string::npos)
      << res.error;
  EXPECT_EQ(inj.stalls_fired(), 1);

  // One stall is below the breaker threshold: the next job rebuilds the
  // planned path (from the refreshed values) and the service keeps
  // serving at full speed.
  inj.disarm();
  const solve::JobHandle next = svc.submit(id, b);
  const solve::JobResult after = next->wait();
  ASSERT_EQ(after.outcome, JobOutcome::kSolved) << after.error;
  EXPECT_FALSE(after.degraded);
  EXPECT_LE(relative_residual(scaled, b, next->solution()), 1e-8);

  // A stall during a DRAIN, by contrast, is absorbed by the
  // preconditioner's exact serial fallback: the job still solves,
  // degraded, and the breaker hears about the lost executor.
  inj.arm_stall(rt::FaultInjector::kAnyTid, n / 2, /*max_stall_ms=*/240000);
  const solve::JobResult deg = svc.submit(id, b)->wait();
  ASSERT_EQ(deg.outcome, JobOutcome::kSolved) << deg.error;
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(inj.stalls_fired(), 2);

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.stalls, 1u);  // only the surfaced (refresh) stall
  EXPECT_EQ(rep.failed, 1u);
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(20000.0));
}

TEST(Service, SubmitDoesNotWaitOnARunningStrip) {
  // Regression: submit() used to lock the tenant's mutex, which the
  // scheduler holds for a whole strip, so a client submitting to the
  // tenant being solved waited for that solve and strips never filled.
  // Park a strip inside its parallel region (doacross pinned, watchdog
  // off) and submit to the same tenant: the call must return while the
  // strip is still parked.
  solve::Service svc(pool(), chaos_options());
  const index_t n = 400;
  const sp::Csr a = tridiag(n);
  const solve::MatrixId id = svc.register_matrix(a);
  rt::FaultInjector inj;
  svc.set_fault_injector(id, &inj);
  const auto b1 = random_vec(n, 1200);
  const auto b2 = random_vec(n, 1201);

  using Clock = std::chrono::steady_clock;
  const auto wait_for = [](const auto& cond, std::chrono::seconds budget) {
    const auto until = Clock::now() + budget;
    while (!cond() && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cond();
  };

  inj.arm_stall(rt::FaultInjector::kAnyTid, n / 2, /*max_stall_ms=*/240000);
  const solve::JobHandle first = svc.submit(id, b1);
  ASSERT_TRUE(wait_for([&] { return inj.stalls_fired() == 1; },
                       std::chrono::seconds(60)))
      << "the first strip never reached the stalled row";

  std::atomic<bool> returned{false};
  solve::JobHandle second;
  std::thread client([&] {
    second = svc.submit(id, b2);
    returned.store(true, std::memory_order_release);
  });
  const bool before_release = wait_for(
      [&] { return returned.load(std::memory_order_acquire); },
      std::chrono::seconds(20));
  const bool first_parked = !first->done();
  inj.release_stalls();
  client.join();
  EXPECT_TRUE(before_release)
      << "submit waited for the tenant's running strip";
  EXPECT_TRUE(first_parked);

  for (const auto& [job, b] :
       {std::pair{first, &b1}, std::pair{second, &b2}}) {
    const solve::JobResult res = job->wait();
    ASSERT_EQ(res.outcome, JobOutcome::kSolved) << res.error;
    EXPECT_FALSE(res.degraded);
    EXPECT_LE(relative_residual(a, *b, job->solution()), 1e-8);
  }
  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.submitted, 2u);
  EXPECT_EQ(rep.solved, 2u);
  EXPECT_EQ(rep.strips, 2u) << "the second job queued for the next strip";
  EXPECT_EQ(rep.strip_jobs, 2u);
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(20000.0));
}

// ----------------------------------------------------------- bad client data

TEST(Service, NonFiniteRhsFailsJobWithoutKillingSchedulerOrBreaker) {
  // Regression: BatchDriver::enqueue throws on a NaN/Inf b when
  // screen_nonfinite is on. That throw used to escape the scheduler
  // thread (no handler around the enqueue loop) and std::terminate the
  // whole service. It must instead fail the strip's jobs, leave the
  // breaker alone (client data, not infrastructure), and keep serving.
  solve::ServiceOptions opts;
  opts.solver.screen_nonfinite = true;
  solve::Service svc(pool(), opts);
  const sp::Csr a = gen::five_point(8, 8);
  const solve::MatrixId id = svc.register_matrix(a);

  auto bad = random_vec(a.rows, 900);
  bad[5] = std::nan("");
  const solve::JobResult res = svc.submit(id, bad)->wait();
  ASSERT_EQ(res.outcome, JobOutcome::kFailed);
  EXPECT_NE(res.error.find("non-finite"), std::string::npos) << res.error;

  // No breaker charge for caller data: the planned path stays armed.
  const solve::MatrixInfo mi = svc.matrix_info(id);
  EXPECT_EQ(mi.breaker, solve::BreakerState::kClosed);
  EXPECT_EQ(mi.consecutive_failures, 0);

  // The scheduler survived: the next clean job solves at full speed.
  const auto good = random_vec(a.rows, 901);
  const solve::JobHandle job = svc.submit(id, good);
  const solve::JobResult ok = job->wait();
  ASSERT_EQ(ok.outcome, JobOutcome::kSolved) << ok.error;
  EXPECT_FALSE(ok.degraded);
  EXPECT_LE(relative_residual(a, good, job->solution()), 1e-8);

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.solved, 1u);
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(10000.0));
}

TEST(Service, SchedulerSurvivesDeadPoolAndDegradesToSerialFallback) {
  // The scheduler must absorb a pool that refuses regions (thrown
  // std::logic_error at dispatch) the same way it absorbs any other
  // infrastructure failure: fail the strip, trip the breaker, and keep
  // serving through the inline serial fallback — never terminate.
  rt::ThreadPool own_pool(4);
  solve::ServiceOptions opts = chaos_options();
  opts.breaker_threshold = 1;
  opts.breaker_backoff_ms = 60000.0;  // stays open for the whole test
  solve::Service svc(own_pool, opts);
  const sp::Csr a = tridiag(300);
  const solve::MatrixId id = svc.register_matrix(a);
  const auto b = random_vec(a.rows, 910);

  {  // Warm the planned (parallel) path while the pool is healthy.
    const solve::JobHandle job = svc.submit(id, b);
    ASSERT_EQ(job->wait().outcome, JobOutcome::kSolved);
  }

  // All workers idle: this join is clean, but every later region throws.
  own_pool.shutdown(std::chrono::milliseconds(10000));

  const solve::JobResult dead = svc.submit(id, b)->wait();
  ASSERT_EQ(dead.outcome, JobOutcome::kFailed);
  EXPECT_NE(dead.error.find("shut down"), std::string::npos) << dead.error;
  EXPECT_EQ(svc.matrix_info(id).breaker, solve::BreakerState::kOpen);

  // Breaker open: the serial fallback runs inline (width-1 regions never
  // touch the dead pool) and still serves exact answers.
  const solve::JobHandle job = svc.submit(id, b);
  const solve::JobResult deg = job->wait();
  ASSERT_EQ(deg.outcome, JobOutcome::kSolved) << deg.error;
  EXPECT_TRUE(deg.degraded);
  EXPECT_LE(relative_residual(a, b, job->solution()), 1e-8);

  const solve::ServiceReport rep = svc.report();
  EXPECT_EQ(rep.submitted, 3u);
  EXPECT_EQ(rep.solved, 2u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_GE(rep.breaker_trips, 1u);
  expect_exact_accounting(rep);
  EXPECT_TRUE(svc.shutdown(10000.0));
}

// ------------------------------------------------------------------- C ABI

TEST(ServiceCAbi, BadSolverOptionsFailCreateNotTheFirstSolves) {
  // Solver options are checked when the service is built: a caller's
  // typo is an invalid argument there, not a plan-build failure charged
  // to the first strip's jobs and to the tenant's breaker.
  const auto expect_rejected = [](void (*set)(solve::BatchDriverOptions&),
                                  const char* field) {
    solve::ServiceOptions opts;
    set(opts.solver);
    EXPECT_THROW({ solve::Service svc(pool(), opts); }, std::invalid_argument)
        << field;
  };
  expect_rejected([](solve::BatchDriverOptions& o) { o.max_iterations = -1; },
                  "max_iterations");
  expect_rejected([](solve::BatchDriverOptions& o) { o.max_attempts = 0; },
                  "max_attempts");
  expect_rejected(
      [](solve::BatchDriverOptions& o) { o.retry_iteration_factor = 0; },
      "retry_iteration_factor");
  expect_rejected([](solve::BatchDriverOptions& o) { o.gmres_restart = 0; },
                  "gmres_restart");

  pdx_service* svc = nullptr;
  pdx_service_options o;
  pdx_service_options_init(&o);
  o.max_iterations = -1;
  EXPECT_EQ(pdx_service_create(&o, &svc), PDX_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(svc, nullptr);
  pdx_service_options_init(&o);
  o.max_attempts = -1;
  EXPECT_EQ(pdx_service_create(&o, &svc), PDX_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(svc, nullptr);
}

TEST(ServiceCAbi, MalformedCsrIsRejectedBeforeAnyCopy) {
  // Regression: make_csr used to trust ptr[n] as the element count
  // before any validation — a negative or garbage value cast to a huge
  // size_t and read far out of bounds across the exception-free C
  // boundary. The C layer must reject malformed arrays up front.
  pdx_service* svc = nullptr;
  pdx_service_options o;
  pdx_service_options_init(&o);
  ASSERT_EQ(pdx_service_create(&o, &svc), PDX_OK);

  int64_t ptr_ok[3] = {0, 1, 2};
  int64_t idx_ok[2] = {0, 1};
  double val[2] = {4.0, 4.0};
  uint64_t id = 0;

  int64_t ptr_negative_nnz[3] = {0, 1, -4};
  EXPECT_EQ(pdx_service_register_matrix(svc, 2, ptr_negative_nnz, idx_ok, val,
                                        &id),
            PDX_ERR_INVALID_ARGUMENT);
  int64_t ptr_decreasing[3] = {0, 2, 1};
  EXPECT_EQ(pdx_service_register_matrix(svc, 2, ptr_decreasing, idx_ok, val,
                                        &id),
            PDX_ERR_INVALID_ARGUMENT);
  int64_t ptr_nonzero_base[3] = {1, 1, 2};
  EXPECT_EQ(pdx_service_register_matrix(svc, 2, ptr_nonzero_base, idx_ok, val,
                                        &id),
            PDX_ERR_INVALID_ARGUMENT);
  int64_t idx_out_of_range[2] = {0, 5};
  EXPECT_EQ(pdx_service_register_matrix(svc, 2, ptr_ok, idx_out_of_range, val,
                                        &id),
            PDX_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pdx_service_register_matrix(svc, 0, ptr_ok, idx_ok, val, &id),
            PDX_ERR_INVALID_ARGUMENT);

  ASSERT_EQ(pdx_service_register_matrix(svc, 2, ptr_ok, idx_ok, val, &id),
            PDX_OK);
  EXPECT_EQ(pdx_service_update_values(svc, id, 2, ptr_negative_nnz, idx_ok,
                                      val),
            PDX_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pdx_service_update_values(svc, id, 2, ptr_ok, idx_ok, val),
            PDX_OK);

  pdx_service_free(svc);
}

TEST(ServiceCAbi, NegativeXLenIsInvalidNotABufferOverflow) {
  // Regression: pdx_job_wait cast x_len straight to size_t, so a
  // negative length passed the too-small check and memcpy overran the
  // caller's buffer.
  pdx_service* svc = nullptr;
  pdx_service_options o;
  pdx_service_options_init(&o);
  ASSERT_EQ(pdx_service_create(&o, &svc), PDX_OK);

  int64_t ptr[3] = {0, 1, 2};
  int64_t idx[2] = {0, 1};
  double val[2] = {4.0, 4.0};
  uint64_t id = 0;
  ASSERT_EQ(pdx_service_register_matrix(svc, 2, ptr, idx, val, &id), PDX_OK);

  double b[2] = {4.0, 8.0};
  pdx_job* job = nullptr;
  ASSERT_EQ(pdx_service_submit(svc, id, b, 2, /*timeout_ms=*/0.0, &job),
            PDX_OK);

  char err[128] = {0};
  double x[2] = {0.0, 0.0};
  EXPECT_EQ(pdx_job_wait(job, x, -1, err, sizeof err),
            PDX_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(err).find("negative"), std::string::npos) << err;
  EXPECT_EQ(x[0], 0.0);  // nothing was written

  // The same handle with a sane length still hands out the solution.
  ASSERT_EQ(pdx_job_wait(job, x, 2, err, sizeof err), PDX_OK);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 2.0, 1e-8);

  pdx_job_free(job);
  pdx_service_free(svc);
}

TEST(ServiceCAbi, HugeAndInfiniteTimeoutsNeverExpire) {
  pdx_service* svc = nullptr;
  pdx_service_options o;
  pdx_service_options_init(&o);
  ASSERT_EQ(pdx_service_create(&o, &svc), PDX_OK);

  int64_t ptr[3] = {0, 1, 2};
  int64_t idx[2] = {0, 1};
  double val[2] = {4.0, 4.0};
  uint64_t id = 0;
  ASSERT_EQ(pdx_service_register_matrix(svc, 2, ptr, idx, val, &id), PDX_OK);

  double b[2] = {4.0, 8.0};
  for (double timeout_ms : {kInf, 1e13}) {
    pdx_job* job = nullptr;
    ASSERT_EQ(pdx_service_submit(svc, id, b, 2, timeout_ms, &job), PDX_OK);
    char err[128] = {0};
    double x[2] = {0.0, 0.0};
    EXPECT_EQ(pdx_job_wait(job, x, 2, err, sizeof err), PDX_OK)
        << "timeout " << timeout_ms << ": " << err;
    EXPECT_NEAR(x[1], 2.0, 1e-8);
    pdx_job_free(job);
  }
  EXPECT_EQ(pdx_service_shutdown(svc, kInf), PDX_OK);
  pdx_service_free(svc);
}
