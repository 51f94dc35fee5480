// Tests for plan-owned packed factor streams (DESIGN.md §10): the packed
// layout is bitwise identical to kCsrView and to the sequential Fig. 7
// solves across every strategy, thread count and batch shape; packed
// solves stay zero-allocation and one-dispatch (zero for serial); build
// pays exactly one extra pool dispatch for the first-touch packing pass;
// and telemetry records the layout decision with its byte cost.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/precond.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
namespace core = pdx::core;
using pdx::index_t;

// --- global allocation probe -----------------------------------------
//
// The zero-allocation promise of packed solves is asserted by counting
// every route into the heap this binary has (plain, nothrow, and aligned
// operator new — the plan's scratch uses the aligned forms). Counters
// are relaxed atomics: the probe is read only while the pool is idle.
namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (sz + static_cast<std::size_t>(al) - 1) /
                                       static_cast<std::size_t>(al) *
                                       static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

std::vector<double> random_columns(index_t n, index_t k, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> m(static_cast<std::size_t>(n * k));
  for (auto& v : m) v = rng.next_double(-1.0, 1.0);
  return m;
}

constexpr sp::ExecutionStrategy kStrategies[] = {
    sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross,
    sp::ExecutionStrategy::kLevelBarrier};

sp::PlanOptions plan_opts(sp::ExecutionStrategy s, unsigned nth,
                          sp::PlanLayout layout) {
  sp::PlanOptions o;
  o.nthreads = nth;
  o.strategy = s;
  o.layout = layout;
  return o;
}

}  // namespace

TEST(PackedLayout, FusedSolveBitwiseMatchesCsrViewAndSequential) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(17, 19));
  const index_t n = f.l.rows;
  const auto rhs = random_columns(n, 1, 31);
  std::vector<double> t(static_cast<std::size_t>(n)),
      z_seq(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(f.l, rhs, t);
  sp::trisolve_upper_seq(f.u, t, z_seq);

  for (sp::ExecutionStrategy s : kStrategies) {
    for (unsigned nth : {1u, 2u, 4u}) {
      sp::TrisolvePlan packed(pool(), f.l, f.u,
                              plan_opts(s, nth, sp::PlanLayout::kPacked));
      sp::TrisolvePlan csr(pool(), f.l, f.u,
                           plan_opts(s, nth, sp::PlanLayout::kCsrView));
      ASSERT_EQ(packed.layout(), sp::PlanLayout::kPacked);
      ASSERT_EQ(csr.layout(), sp::PlanLayout::kCsrView);
      std::vector<double> z_p(static_cast<std::size_t>(n)),
          z_c(static_cast<std::size_t>(n));
      for (int epoch = 0; epoch < 3; ++epoch) {
        packed.solve(rhs, z_p);
        csr.solve(rhs, z_c);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
                    z_p[static_cast<std::size_t>(i)])
              << core::to_string(s) << " nth=" << nth << " epoch=" << epoch
              << " row " << i << " (packed vs sequential)";
          ASSERT_EQ(z_c[static_cast<std::size_t>(i)],
                    z_p[static_cast<std::size_t>(i)])
              << core::to_string(s) << " nth=" << nth << " epoch=" << epoch
              << " row " << i << " (packed vs csr-view)";
        }
      }
    }
  }
}

TEST(PackedLayout, FusedAndInPlaceColumnSolvesBitwise) {
  const sp::IluFactors f = sp::ilu0(gen::seven_point(6, 7, 5));
  const index_t n = f.l.rows;
  const auto rhs = random_columns(n, 1, 32);
  std::vector<double> y_seq(static_cast<std::size_t>(n)),
      z_seq(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(f.l, rhs, y_seq);
  sp::trisolve_upper_seq(f.u, y_seq, z_seq);

  for (sp::ExecutionStrategy s : kStrategies) {
    for (unsigned nth : {1u, 2u, 4u}) {
      sp::TrisolvePlan plan(pool(), f.l, f.u,
                            plan_opts(s, nth, sp::PlanLayout::kPacked));
      std::vector<double> z(static_cast<std::size_t>(n)), x = rhs;
      plan.solve(rhs, z);
      plan.solve_strip(x, x, 1);  // one lane, solved in place
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
                  z[static_cast<std::size_t>(i)])
            << core::to_string(s) << " nth=" << nth << " fused row " << i;
        ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
                  x[static_cast<std::size_t>(i)])
            << core::to_string(s) << " nth=" << nth << " in-place row " << i;
      }
    }
  }
}

TEST(PackedLayout, BatchSolvesBitwiseAcrossStrategiesModesAndK) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(14, 14));
  const index_t n = f.l.rows;

  for (sp::ExecutionStrategy s : kStrategies) {
    for (unsigned nth : {1u, 2u, 4u}) {
      sp::TrisolvePlan packed(pool(), f.l, f.u,
                              plan_opts(s, nth, sp::PlanLayout::kPacked));
      sp::TrisolvePlan csr(pool(), f.l, f.u,
                           plan_opts(s, nth, sp::PlanLayout::kCsrView));
      for (index_t k : {index_t{1}, index_t{8}}) {
        const auto b = random_columns(n, k, 500 + static_cast<unsigned>(k));
        // Reference: k sequential fused solves.
        std::vector<double> x_ref(b.size()), t(static_cast<std::size_t>(n));
        for (index_t c = 0; c < k; ++c) {
          sp::trisolve_lower_seq(
              f.l,
              std::span<const double>(b.data() + c * n,
                                      static_cast<std::size_t>(n)),
              t);
          sp::trisolve_upper_seq(
              f.u, t,
              std::span<double>(x_ref.data() + c * n,
                                static_cast<std::size_t>(n)));
        }
        std::vector<double> x_p(b.size(), 0.0), x_c(b.size(), 0.0);
        packed.solve_batch(b, x_p, k);
        csr.solve_batch(b, x_c, k);
        for (index_t i = 0; i < n * k; ++i) {
          ASSERT_EQ(x_ref[static_cast<std::size_t>(i)],
                    x_p[static_cast<std::size_t>(i)])
              << core::to_string(s) << " nth=" << nth << " k=" << k << " at "
              << i << " (packed vs sequential)";
          ASSERT_EQ(x_c[static_cast<std::size_t>(i)],
                    x_p[static_cast<std::size_t>(i)])
              << core::to_string(s) << " nth=" << nth << " k=" << k << " at "
              << i << " (packed vs csr-view)";
        }
      }
    }
  }
}

TEST(PackedLayout, PackedSolvesAreZeroAllocAndOneDispatch) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  const index_t n = f.l.rows;
  const index_t k = 4;
  const auto b = random_columns(n, k, 77);
  std::vector<double> x(b.size());

  for (sp::ExecutionStrategy s : kStrategies) {
    sp::TrisolvePlan plan(pool(), f.l, f.u,
                          plan_opts(s, 4, sp::PlanLayout::kPacked));
    plan.reserve_batch(k);
    // Warm-up grows nothing afterwards: scratch, flag tables and streams
    // are all build-time state.
    plan.solve(b, x);
    plan.solve_batch(b, x, k);

    const std::uint64_t expected_dispatches =
        s == sp::ExecutionStrategy::kSerial ? 0u : 1u;
    const rt::DispatchProbe probe(pool());
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    plan.solve(b, x);
    const std::uint64_t alloc_solve =
        g_allocs.load(std::memory_order_relaxed) - a0;
    const std::uint64_t disp_solve = probe.delta();

    const rt::DispatchProbe probe2(pool());
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    plan.solve_batch(b, x, k);
    const std::uint64_t alloc_batch =
        g_allocs.load(std::memory_order_relaxed) - a1;
    const std::uint64_t disp_batch = probe2.delta();

    EXPECT_EQ(alloc_solve, 0u) << core::to_string(s);
    EXPECT_EQ(disp_solve, expected_dispatches) << core::to_string(s);
    EXPECT_EQ(alloc_batch, 0u) << core::to_string(s);
    EXPECT_EQ(disp_batch, expected_dispatches) << core::to_string(s);
  }
}

TEST(PackedLayout, BuildCostsExactlyOneExtraDispatchForParallelPlans) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(12, 12));

  // Parallel strategies: the first-touch packing pass is ONE pool
  // dispatch covering BOTH factors; a kCsrView build dispatches nothing.
  for (sp::ExecutionStrategy s : {sp::ExecutionStrategy::kDoacross,
                                  sp::ExecutionStrategy::kLevelBarrier}) {
    rt::DispatchProbe probe(pool());
    sp::TrisolvePlan packed(pool(), f.l, f.u,
                            plan_opts(s, 4, sp::PlanLayout::kPacked));
    EXPECT_EQ(probe.delta(), 1u) << core::to_string(s);
    probe.rebase();
    sp::TrisolvePlan csr(pool(), f.l, f.u,
                         plan_opts(s, 4, sp::PlanLayout::kCsrView));
    EXPECT_EQ(probe.delta(), 0u) << core::to_string(s);
  }
  // Serial plans pack inline: the calling thread is the executor, so
  // even the packing pass costs zero dispatches.
  rt::DispatchProbe probe(pool());
  sp::TrisolvePlan serial(
      pool(), f.l, f.u,
      plan_opts(sp::ExecutionStrategy::kSerial, 4, sp::PlanLayout::kPacked));
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_EQ(serial.layout(), sp::PlanLayout::kPacked);
}

TEST(PackedLayout, RecordLayoutKeeps32ByteAlignment) {
  // Compile-time record geometry (DESIGN.md §14): vals starts on a
  // four-word (32B) offset and every record is a whole number of 32B
  // groups, so record bases — and therefore vals — stay 32B-aligned for
  // the vector kernels given the slabs' cache-line alignment.
  using Stream = sp::PackedFactorStream;
  for (index_t cnt : {index_t{0}, index_t{1}, index_t{4}, index_t{5},
                      index_t{9}, index_t{100}}) {
    EXPECT_EQ(Stream::vals_offset_words(cnt) % 4, 0) << "cnt=" << cnt;
    EXPECT_GE(Stream::vals_offset_words(cnt), 3 + cnt) << "cnt=" << cnt;
    EXPECT_EQ(Stream::record_bytes(cnt) % 32, 0u) << "cnt=" << cnt;
    EXPECT_GE(Stream::record_bytes(cnt),
              static_cast<std::size_t>(Stream::vals_offset_words(cnt) + cnt) *
                  8)
        << "cnt=" << cnt;
  }

  // And at run time: every record's vals pointer in a packed factor is
  // 32B-aligned (nine-point rows mix widths, so tails are exercised).
  const sp::IluFactors f = sp::ilu0(gen::nine_point(9, 11));
  sp::PackedFactorStream stream;
  std::vector<index_t> rows(static_cast<std::size_t>(f.l.rows));
  for (index_t i = 0; i < f.l.rows; ++i) {
    rows[static_cast<std::size_t>(i)] = i;
  }
  stream.prepare(f.l, /*diag_first=*/false, {rows},
                 /*build_position_index=*/false);
  stream.pack(0);
  sp::PackedFactorStream::Cursor cur = stream.cursor(0);
  for (index_t i = 0; i < f.l.rows; ++i) {
    const sp::PackedRow r = cur.next();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.vals) % 32, 0u)
        << "row " << r.row;
    EXPECT_EQ(r.row, i);
  }
}

TEST(PackedLayout, TelemetryRecordsLayoutAndBytes) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(10, 10));
  sp::TrisolvePlan packed(pool(), f.l, f.u,
                          plan_opts(sp::ExecutionStrategy::kDoacross, 2,
                                    sp::PlanLayout::kPacked));
  EXPECT_EQ(packed.telemetry().layout, sp::PlanLayout::kPacked);
  // Streams carry every record plus per-record headers; they are at
  // least the size of the idx/val payload they fuse.
  const std::size_t payload =
      static_cast<std::size_t>(f.l.nnz() + f.u.nnz()) * sizeof(double);
  EXPECT_GE(packed.telemetry().packed_bytes, payload);
  EXPECT_EQ(packed.packed_bytes(), packed.telemetry().packed_bytes);

  sp::TrisolvePlan csr(pool(), f.l, f.u,
                       plan_opts(sp::ExecutionStrategy::kDoacross, 2,
                                 sp::PlanLayout::kCsrView));
  EXPECT_EQ(csr.telemetry().layout, sp::PlanLayout::kCsrView);
  EXPECT_EQ(csr.packed_bytes(), 0u);
}

TEST(PackedLayout, LayoutKnobThreadsThroughPreconditionerAndDriver) {
  const sp::Csr a = gen::five_point(15, 15);
  gen::SplitMix64 rng(91);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);

  // Same Krylov path bitwise under both layouts.
  std::vector<double> x_p(b.size(), 0.0), x_c(b.size(), 0.0);
  const auto rep_p = solve::pcg(
      a, b, x_p,
      solve::DoacrossIlu0Preconditioner{
          pool(), a,
          sp::PlanOptions{.strategy = sp::ExecutionStrategy::kAuto,
                          .layout = sp::PlanLayout::kPacked}});
  const auto rep_c = solve::pcg(
      a, b, x_c,
      solve::DoacrossIlu0Preconditioner{
          pool(), a,
          sp::PlanOptions{.strategy = sp::ExecutionStrategy::kAuto,
                          .layout = sp::PlanLayout::kCsrView}});
  EXPECT_TRUE(rep_p.converged);
  EXPECT_EQ(rep_p.iterations, rep_c.iterations);
  for (std::size_t i = 0; i < x_p.size(); ++i) ASSERT_EQ(x_p[i], x_c[i]) << i;

  // BatchDriver forwards the layout knob to its shared plan.
  solve::BatchDriverOptions dopts;
  dopts.layout = sp::PlanLayout::kPacked;
  solve::BatchDriver driver(pool(), a, dopts);
  std::vector<double> x(b.size(), 0.0);
  driver.enqueue(b, x);
  driver.drain();
  EXPECT_EQ(driver.preconditioner().plan().layout(), sp::PlanLayout::kPacked);
  EXPECT_GT(driver.preconditioner().plan().packed_bytes(), 0u);
}
