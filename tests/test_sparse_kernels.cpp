// Tests for the runtime-dispatched vector kernel layer (DESIGN.md §14):
// ISA resolution and the PDX_KERNEL override contract, bitwise identity
// of every lane kernel against the scalar reference (the strip-lane
// kernels of the lockstep CG also against the single-vector loops they
// stand for), plan-level bitwise identity of forced-scalar vs
// forced-vector vs auto-dispatched plans across strategies, thread counts
// and layouts, FactorPlan's kernel-dispatched scatter updates, and the
// scalar-vs-vector kernel race telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/vec.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/kernels.hpp"
#include "sparse/permute.hpp"
#include "sparse/rcm.hpp"
#include "sparse/factor_plan.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace sp = pdx::sparse;
namespace kn = pdx::sparse::kernels;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
namespace core = pdx::core;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

constexpr sp::ExecutionStrategy kStrategies[] = {
    sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross,
    sp::ExecutionStrategy::kLevelBarrier};

sp::PlanOptions plan_opts(sp::ExecutionStrategy s, unsigned nth,
                          sp::PlanLayout layout, kn::KernelChoice kernel) {
  sp::PlanOptions o;
  o.nthreads = nth;
  o.strategy = s;
  o.layout = layout;
  o.kernel = kernel;
  return o;
}

}  // namespace

// --- ISA resolution ----------------------------------------------------

TEST(KernelDispatch, ResolveIsaHonorsOverrides) {
  const kn::KernelIsa hw = kn::resolve_isa(nullptr);
  // "scalar" always pins the fallback; empty/auto/unknown defer to CPUID.
  EXPECT_EQ(kn::resolve_isa("scalar"), kn::KernelIsa::kScalar);
  EXPECT_EQ(kn::resolve_isa(""), hw);
  EXPECT_EQ(kn::resolve_isa("auto"), hw);
  EXPECT_EQ(kn::resolve_isa("definitely-not-an-isa"), hw);
  // Requesting an ISA the machine lacks clamps to scalar; requesting the
  // one it has returns it.
  const kn::KernelIsa avx2 = kn::resolve_isa("avx2");
  const kn::KernelIsa neon = kn::resolve_isa("neon");
  EXPECT_TRUE(avx2 == kn::KernelIsa::kAvx2 || avx2 == kn::KernelIsa::kScalar);
  EXPECT_TRUE(neon == kn::KernelIsa::kNeon || neon == kn::KernelIsa::kScalar);
  EXPECT_EQ(avx2 == kn::KernelIsa::kAvx2, hw == kn::KernelIsa::kAvx2);
  EXPECT_EQ(neon == kn::KernelIsa::kNeon, hw == kn::KernelIsa::kNeon);
}

TEST(KernelDispatch, TablesExistForEveryIsa) {
  EXPECT_EQ(kn::scalar_ops().isa, kn::KernelIsa::kScalar);
  // ops_for falls back to scalar for ISAs the build lacks bodies for;
  // whatever comes back must self-describe correctly.
  for (kn::KernelIsa isa : {kn::KernelIsa::kScalar, kn::KernelIsa::kAvx2,
                            kn::KernelIsa::kNeon}) {
    const kn::LaneOps& ops = kn::ops_for(isa);
    EXPECT_TRUE(ops.isa == isa || ops.isa == kn::KernelIsa::kScalar);
    ASSERT_NE(ops.row_solve, nullptr);
    ASSERT_NE(ops.gather_axpy, nullptr);
    ASSERT_NE(ops.spmv_row, nullptr);
    ASSERT_NE(ops.lane_dot, nullptr);
    ASSERT_NE(ops.lane_axpy, nullptr);
    ASSERT_NE(ops.lane_xpby, nullptr);
  }
  EXPECT_EQ(kn::dispatched_ops().isa, kn::dispatched_isa());
}

// --- lane kernel unit tests (bitwise class) ----------------------------

TEST(KernelLanes, RowSolveBitwiseMatchesCopySubDivideLoops) {
  // The fused strip row must equal the plain three-step row — copy
  // the input, subtract each dependence (mul then sub, j order), divide —
  // bitwise, lane by lane, for every table. k = 1..40 runs every 16/8/4
  // register block and every 1-3 lane tail (AVX2) and every 8/4/2 block
  // and 1-lane tail (NEON); cnt = 0..9 covers empty and long rows.
  // Diagonals include 1.0, negative and tiny values; NaN and Inf lanes
  // must propagate exactly as the scalar loop propagates them.
  const index_t n_strip_rows = 23;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double diags[] = {1.0, -3.0625, 1.7e-300, 0.7071067811865476};
  for (kn::KernelIsa isa :
       {kn::KernelIsa::kScalar, kn::KernelIsa::kAvx2, kn::KernelIsa::kNeon}) {
    const kn::LaneOps& ops = kn::ops_for(isa);
    for (index_t k = 1; k <= 40; ++k) {
      const std::size_t ku = static_cast<std::size_t>(k);
      auto xs = random_vec(static_cast<std::size_t>(n_strip_rows) * ku,
                           37 + static_cast<std::uint64_t>(k));
      // A few special lanes in the dependence rows: lane 2 of row 3 and
      // the last lane of row 5 (when the strip is that wide).
      if (k > 2) xs[3 * ku + 2] = nan;
      xs[5 * ku + ku - 1] = inf;
      for (index_t cnt = 0; cnt <= 9; ++cnt) {
        const auto vals =
            random_vec(static_cast<std::size_t>(cnt),
                       31 + static_cast<std::uint64_t>(cnt * 64 + k));
        std::vector<index_t> cols;
        for (index_t j = 0; j < cnt; ++j) {
          cols.push_back(1 + (j * 7) % (n_strip_rows - 1));  // never row 0
        }
        auto b = random_vec(ku, 41 + static_cast<std::uint64_t>(cnt + k));
        if (k > 1) b[1] = -inf;
        for (const double diag : diags) {
          // Reference: copy, per-dependence mul+sub, divide.
          std::vector<double> ref(b);
          for (index_t j = 0; j < cnt; ++j) {
            const double a = vals[static_cast<std::size_t>(j)];
            const double* x =
                xs.data() + cols[static_cast<std::size_t>(j)] * k;
            for (index_t c = 0; c < k; ++c) {
              ref[static_cast<std::size_t>(c)] -= a * x[c];
            }
          }
          for (double& v : ref) v /= diag;

          // From a separate input row into strip row 0 (the forward
          // solve), and in place (src == t, the backward solve).
          std::vector<double> out(xs);
          ops.row_solve(out.data(), b.data(), vals.data(), cols.data(), cnt,
                        diag, xs.data(), k);
          std::vector<double> in_place(xs);
          std::copy(b.begin(), b.end(), in_place.begin());
          ops.row_solve(in_place.data(), in_place.data(), vals.data(),
                        cols.data(), cnt, diag, in_place.data(), k);
          ASSERT_EQ(std::memcmp(out.data(), ref.data(), ku * sizeof(double)),
                    0)
              << kn::to_string(isa) << " row_solve k=" << k << " cnt=" << cnt
              << " diag=" << diag;
          ASSERT_EQ(std::memcmp(in_place.data(), ref.data(),
                                ku * sizeof(double)),
                    0)
              << kn::to_string(isa) << " in-place row_solve k=" << k
              << " cnt=" << cnt << " diag=" << diag;
          // The dependence rows are read, never written.
          ASSERT_EQ(std::memcmp(out.data() + ku, xs.data() + ku,
                                (xs.size() - ku) * sizeof(double)),
                    0)
              << kn::to_string(isa) << " row_solve wrote past its row";
        }
      }
    }
  }
}

TEST(KernelLanes, GatherAxpyBitwiseMatchesScalar) {
  // Disjoint tgt/src position sets with distinct targets, as the
  // contract requires — shuffled so the gathers are genuinely scattered.
  const index_t cnt = 37;
  const std::size_t w_len = 128;
  std::vector<index_t> tgt, src;
  for (index_t t = 0; t < cnt; ++t) {
    tgt.push_back((t * 7) % 64);        // distinct (7 coprime to 64)
    src.push_back(64 + ((t * 5) % 64)); // disjoint from targets
  }
  for (kn::KernelIsa isa : {kn::KernelIsa::kAvx2, kn::KernelIsa::kNeon}) {
    const kn::LaneOps& ops = kn::ops_for(isa);
    for (index_t n : {index_t{0}, index_t{3}, index_t{4}, index_t{17}, cnt}) {
      auto w_ref = random_vec(w_len, 101 + n);
      auto w_vec = w_ref;
      const double a = 0.7071067811865476;
      kn::scalar_ops().gather_axpy(w_ref.data(), tgt.data(), src.data(), n, a);
      ops.gather_axpy(w_vec.data(), tgt.data(), src.data(), n, a);
      for (std::size_t i = 0; i < w_len; ++i) {
        ASSERT_EQ(w_ref[i], w_vec[i])
            << kn::to_string(isa) << " gather_axpy cnt=" << n << " at " << i;
      }
    }
  }
}

// --- strip-lane kernels of the lockstep CG (bitwise class) -------------

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A random row-major rows-by-k strip with special values confined to
/// single lanes: lane 0 is all -0.0, the middle lane holds one +Inf and
/// the last lane (k >= 3) one NaN.
std::vector<double> special_strip(index_t rows, index_t k,
                                  std::uint64_t seed) {
  auto s = random_vec(static_cast<std::size_t>(rows * k), seed);
  for (index_t i = 0; i < rows; ++i) s[static_cast<std::size_t>(i * k)] = -0.0;
  if (k >= 2) {
    s[static_cast<std::size_t>((rows / 2) * k + k / 2)] =
        std::numeric_limits<double>::infinity();
  }
  if (k >= 3) {
    s[static_cast<std::size_t>((rows - 1) * k + k - 1)] =
        std::numeric_limits<double>::quiet_NaN();
  }
  return s;
}

}  // namespace

TEST(KernelLanes, StripLaneKernelsBitwiseMatchScalarAndTheVectorLoops) {
  // Every strip-lane entry of every table equals the scalar table bit for
  // bit — ±0, NaN and Inf included — and the scalar table equals the
  // single-vector loops it stands for (sparse::spmv's row, solve::dot,
  // axpy, xpby) lane by lane, at every k across the vector-width tails.
  const index_t rows = 13;
  // Non-negative values: every product in the all -0.0 lane 0 is -0.0,
  // so the lane's sum is +0.0 only when it starts from +0.0 as spmv does.
  const std::vector<double> vals = {0.5, 1.25, 3.0, 0.0, 2.5};
  const std::vector<index_t> cols = {0, 4, 7, 9, 12};
  const index_t cnt = static_cast<index_t>(vals.size());
  const kn::LaneOps& ref = kn::scalar_ops();
  for (index_t k = 1; k <= 33; ++k) {
    const std::size_t len = static_cast<std::size_t>(rows * k);
    const auto xs = special_strip(rows, k, 300 + k);
    auto other = random_vec(len, 400 + k);
    for (index_t i = 0; i < rows; ++i) {  // lane 0 of every product -0.0
      other[static_cast<std::size_t>(i * k)] =
          std::fabs(other[static_cast<std::size_t>(i * k)]);
    }
    std::vector<double> coef = random_vec(static_cast<std::size_t>(k), 500);
    coef[0] = -0.0;
    if (k >= 2) coef[static_cast<std::size_t>(k - 1)] = 1e308;

    // The scalar table against the per-lane loops.
    std::vector<double> y_ref(static_cast<std::size_t>(k)),
        dot_ref(static_cast<std::size_t>(k));
    auto axpy_ref = other, xpby_ref = other;
    ref.spmv_row(y_ref.data(), vals.data(), cols.data(), cnt, xs.data(), k);
    ref.lane_dot(dot_ref.data(), xs.data(), other.data(), rows, k);
    ref.lane_axpy(axpy_ref.data(), coef.data(), xs.data(), rows, k);
    ref.lane_xpby(xpby_ref.data(), coef.data(), xs.data(), rows, k);
    for (index_t c = 0; c < k; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      std::vector<double> xl(static_cast<std::size_t>(rows)), ol = xl;
      for (index_t i = 0; i < rows; ++i) {
        xl[static_cast<std::size_t>(i)] =
            xs[static_cast<std::size_t>(i * k + c)];
        ol[static_cast<std::size_t>(i)] =
            other[static_cast<std::size_t>(i * k + c)];
      }
      double acc = 0.0;
      for (index_t j = 0; j < cnt; ++j) {
        acc += vals[static_cast<std::size_t>(j)] *
               xl[static_cast<std::size_t>(cols[static_cast<std::size_t>(j)])];
      }
      ASSERT_TRUE(same_bits(acc, y_ref[cc])) << "spmv_row k=" << k << " " << c;
      ASSERT_TRUE(same_bits(solve::dot(xl, ol), dot_ref[cc]))
          << "lane_dot k=" << k << " lane " << c;
      auto ya = ol, yx = ol;
      solve::axpy(coef[cc], xl, ya);
      solve::xpby(xl, coef[cc], yx);
      for (index_t i = 0; i < rows; ++i) {
        const std::size_t at = static_cast<std::size_t>(i * k + c);
        ASSERT_TRUE(same_bits(ya[static_cast<std::size_t>(i)], axpy_ref[at]))
            << "lane_axpy k=" << k << " lane " << c << " row " << i;
        ASSERT_TRUE(same_bits(yx[static_cast<std::size_t>(i)], xpby_ref[at]))
            << "lane_xpby k=" << k << " lane " << c << " row " << i;
      }
    }

    // Every vector table against the scalar table.
    for (kn::KernelIsa isa : {kn::KernelIsa::kAvx2, kn::KernelIsa::kNeon}) {
      const kn::LaneOps& ops = kn::ops_for(isa);
      std::vector<double> y(static_cast<std::size_t>(k)),
          dots(static_cast<std::size_t>(k));
      auto ax = other, xp = other;
      ops.spmv_row(y.data(), vals.data(), cols.data(), cnt, xs.data(), k);
      ops.lane_dot(dots.data(), xs.data(), other.data(), rows, k);
      ops.lane_axpy(ax.data(), coef.data(), xs.data(), rows, k);
      ops.lane_xpby(xp.data(), coef.data(), xs.data(), rows, k);
      const std::string where =
          std::string(kn::to_string(isa)) + " k=" + std::to_string(k);
      for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
        ASSERT_TRUE(same_bits(y_ref[c], y[c])) << where << " spmv_row " << c;
        ASSERT_TRUE(same_bits(dot_ref[c], dots[c]))
            << where << " lane_dot " << c;
      }
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_TRUE(same_bits(axpy_ref[i], ax[i])) << where << " axpy " << i;
        ASSERT_TRUE(same_bits(xpby_ref[i], xp[i])) << where << " xpby " << i;
      }
    }
  }
}

// --- plan-level bitwise identity ---------------------------------------

TEST(KernelPlans, BatchSolvesBitwiseAcrossKernelChoices) {
  // The lane-parallel batch kernels are bitwise per column, so a
  // forced-vector plan must equal a forced-scalar plan must equal k
  // sequential fused solves — across strategies, widths and layouts.
  const sp::IluFactors f = sp::ilu0(gen::nine_point(13, 15));
  const index_t n = f.l.rows;
  const index_t k = 8;
  const auto b = random_vec(static_cast<std::size_t>(n * k), 42);
  std::vector<double> x_ref(b.size()), t(static_cast<std::size_t>(n));
  for (index_t c = 0; c < k; ++c) {
    sp::trisolve_lower_seq(
        f.l,
        std::span<const double>(b.data() + c * n, static_cast<std::size_t>(n)),
        t);
    sp::trisolve_upper_seq(f.u, t,
                           std::span<double>(x_ref.data() + c * n,
                                             static_cast<std::size_t>(n)));
  }

  for (sp::ExecutionStrategy s : kStrategies) {
    for (unsigned nth : {1u, 2u, 4u}) {
      for (sp::PlanLayout layout :
           {sp::PlanLayout::kPacked, sp::PlanLayout::kCsrView}) {
        sp::TrisolvePlan scalar(pool(), f.l, f.u,
                                plan_opts(s, nth, layout,
                                          kn::KernelChoice::kScalar));
        sp::TrisolvePlan vector(pool(), f.l, f.u,
                                plan_opts(s, nth, layout,
                                          kn::KernelChoice::kVector));
        std::vector<double> x_s(b.size(), 0.0), x_v(b.size(), 0.0);
        scalar.solve_batch(b, x_s, k);
        vector.solve_batch(b, x_v, k);
        for (index_t i = 0; i < n * k; ++i) {
          ASSERT_EQ(x_ref[static_cast<std::size_t>(i)],
                    x_s[static_cast<std::size_t>(i)])
              << core::to_string(s) << " nth=" << nth << " at " << i
              << " (scalar kernel vs sequential)";
          ASSERT_EQ(x_s[static_cast<std::size_t>(i)],
                    x_v[static_cast<std::size_t>(i)])
              << core::to_string(s) << " nth=" << nth << " at " << i
              << " (vector kernel vs scalar kernel)";
        }
      }
    }
  }
}

TEST(KernelPlans, SerialStripBitwiseAtEveryWidth) {
  // The serial CSR-view strip walk — what a settled served plan runs —
  // at every k from 1 to 17: the one-lane vector rows, and one fused
  // row_solve per row at every block/tail split the served strips hit
  // (k = 2-3 are all tail; 5-7, 9-11, 13-15 are ragged). Each lane must
  // equal the sequential solves bitwise, from a separate input and in
  // place, on a stencil, its RCM ordering and a randomly scattered band.
  const sp::Csr stencil = gen::five_point(17, 13);
  const sp::Csr rcm = sp::permute_symmetric(stencil, sp::rcm_order(stencil));
  const index_t band_n = 300;
  sp::CsrBuilder bb(band_n, band_n);
  for (index_t i = 0; i < band_n; ++i) {
    for (index_t d = -3; d <= 3; ++d) {
      if (i + d >= 0 && i + d < band_n) bb.add(i, i + d, d == 0 ? 8.0 : -1.0);
    }
  }
  std::vector<index_t> perm(static_cast<std::size_t>(band_n));
  for (index_t i = 0; i < band_n; ++i) {
    perm[static_cast<std::size_t>(i)] = (i * 97) % band_n;  // 97 ⊥ 300
  }
  const sp::Csr band = sp::permute_symmetric(bb.build(), perm);

  struct Case {
    const char* name;
    const sp::Csr* a;
  };
  for (const Case& cs : {Case{"stencil", &stencil}, Case{"rcm", &rcm},
                         Case{"scattered-band", &band}}) {
    const sp::IluFactors f = sp::ilu0(*cs.a);
    const index_t n = f.l.rows;
    const std::size_t nu = static_cast<std::size_t>(n);
    for (kn::KernelChoice kc :
         {kn::KernelChoice::kScalar, kn::KernelChoice::kVector}) {
      sp::TrisolvePlan plan(pool(), f.l, f.u,
                            plan_opts(sp::ExecutionStrategy::kSerial, 1,
                                      sp::PlanLayout::kCsrView, kc));
      for (index_t k = 1; k <= 17; ++k) {
        const std::size_t ku = static_cast<std::size_t>(k);
        const auto b = random_vec(nu * ku, 900 + static_cast<std::uint64_t>(k));
        std::vector<double> x(b.size(), 0.0), x_in_place(b);
        plan.solve_strip(b, x, k);
        plan.solve_strip(x_in_place, x_in_place, k);
        std::vector<double> col(nu), t(nu), z(nu);
        for (index_t c = 0; c < k; ++c) {
          for (std::size_t i = 0; i < nu; ++i) col[i] = b[i * ku + c];
          sp::trisolve_lower_seq(f.l, col, t);
          sp::trisolve_upper_seq(f.u, t, z);
          for (std::size_t i = 0; i < nu; ++i) {
            ASSERT_EQ(std::memcmp(&z[i], &x[i * ku + c], sizeof(double)), 0)
                << cs.name << " " << kn::to_string(kc) << " k=" << k
                << " lane " << c << " row " << i;
            ASSERT_EQ(
                std::memcmp(&z[i], &x_in_place[i * ku + c], sizeof(double)),
                0)
                << cs.name << " " << kn::to_string(kc) << " k=" << k
                << " lane " << c << " row " << i << " (in place)";
          }
        }
      }
    }
  }
}

TEST(KernelPlans, AutoDispatchBitwiseMatchesForcedScalarAcrossEpochs) {
  // kAuto may race scalar-vs-vector across the first lane-kernel
  // dispatches; every exploration epoch must still be bitwise identical
  // to the pinned-scalar plan (the race is invisible to answers).
  const sp::IluFactors f = sp::ilu0(gen::five_point(15, 13));
  const index_t n = f.l.rows;
  const index_t k = 8;
  const auto b = random_vec(static_cast<std::size_t>(n * k), 77);

  for (sp::ExecutionStrategy s :
       {sp::ExecutionStrategy::kSerial, sp::ExecutionStrategy::kDoacross}) {
    sp::TrisolvePlan fixed(pool(), f.l, f.u,
                           plan_opts(s, 4, sp::PlanLayout::kPacked,
                                     kn::KernelChoice::kScalar));
    sp::TrisolvePlan autod(pool(), f.l, f.u,
                           plan_opts(s, 4, sp::PlanLayout::kPacked,
                                     kn::KernelChoice::kAuto));
    std::vector<double> x_f(b.size()), x_a(b.size());
    for (int epoch = 0; epoch < 8; ++epoch) {  // spans the whole race
      fixed.solve_batch(b, x_f, k);
      autod.solve_batch(b, x_a, k);
      for (index_t i = 0; i < n * k; ++i) {
        ASSERT_EQ(x_f[static_cast<std::size_t>(i)],
                  x_a[static_cast<std::size_t>(i)])
            << core::to_string(s) << " epoch=" << epoch << " at " << i;
      }
    }
  }
}

TEST(KernelFactor, ScatterKernelsBitwiseAcrossChoicesAndStrategies) {
  const sp::Csr a = gen::nine_point(13, 13);
  const sp::IluFactors ref = sp::ilu0(a);

  for (sp::ExecutionStrategy s : kStrategies) {
    for (kn::KernelChoice kc :
         {kn::KernelChoice::kScalar, kn::KernelChoice::kVector,
          kn::KernelChoice::kAuto}) {
      sp::FactorPlanOptions o;
      o.nthreads = 4;
      o.strategy = s;
      o.kernel = kc;
      sp::FactorPlan plan(pool(), a, o);
      sp::IluFactors f = plan.allocate_factors();
      for (int epoch = 0; epoch < 6; ++epoch) {  // spans any kernel race
        plan.factorize(a, f);
        for (std::size_t i = 0; i < ref.l.val.size(); ++i) {
          ASSERT_EQ(ref.l.val[i], f.l.val[i])
              << core::to_string(s) << " kernel=" << kn::to_string(kc)
              << " epoch=" << epoch << " L value " << i;
        }
        for (std::size_t i = 0; i < ref.u.val.size(); ++i) {
          ASSERT_EQ(ref.u.val[i], f.u.val[i])
              << core::to_string(s) << " kernel=" << kn::to_string(kc)
              << " epoch=" << epoch << " U value " << i;
        }
      }
    }
  }
}

// --- kernel race telemetry ---------------------------------------------

TEST(KernelRace, RaceUnitLocksInArgminWinner) {
  kn::Race race;
  EXPECT_FALSE(race.active());
  EXPECT_EQ(race.winner(), kn::KernelChoice::kVector);  // default
  race.arm(2);
  ASSERT_TRUE(race.active());
  // Vector explores first.
  EXPECT_EQ(race.candidate(), kn::KernelChoice::kVector);
  EXPECT_FALSE(race.note_epoch(10.0));
  EXPECT_FALSE(race.note_epoch(12.0));
  EXPECT_EQ(race.candidate(), kn::KernelChoice::kScalar);
  EXPECT_FALSE(race.note_epoch(5.0));
  EXPECT_TRUE(race.note_epoch(6.0));  // lock-in, exactly once
  EXPECT_FALSE(race.active());
  EXPECT_EQ(race.winner(), kn::KernelChoice::kScalar);  // argmin best_us
  const kn::KernelRaceState& st = race.state();
  EXPECT_TRUE(st.calibrated);
  EXPECT_EQ(st.exploration_epochs, 4);
  ASSERT_EQ(st.timings.size(), 2u);
  EXPECT_EQ(st.timings[0].best_us, 10.0);
  EXPECT_EQ(st.timings[1].best_us, 5.0);
  // Disarmed races ignore feeds.
  EXPECT_FALSE(race.note_epoch(1.0));
}

TEST(KernelRace, PlanTelemetryRecordsDispatchAndRace) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(14, 12));
  const index_t n = f.l.rows;
  const index_t k = 8;
  const auto b = random_vec(static_cast<std::size_t>(n * k), 3);
  std::vector<double> x(b.size());

  // Pinned strategy + kAuto kernel: nothing to calibrate strategy-wise,
  // so lane-kernel dispatches feed the kernel race immediately.
  sp::TrisolvePlan plan(pool(), f.l, f.u,
                        plan_opts(sp::ExecutionStrategy::kDoacross, 4,
                                  sp::PlanLayout::kPacked,
                                  kn::KernelChoice::kAuto));
  EXPECT_EQ(plan.telemetry().isa, kn::dispatched_isa());
  if (kn::dispatched_isa() == kn::KernelIsa::kScalar) {
    // Scalar machine (or PDX_KERNEL=scalar): no race to run, the choice
    // is scalar from construction.
    EXPECT_EQ(plan.telemetry().kernel, kn::KernelChoice::kScalar);
    for (int e = 0; e < 6; ++e) {
      plan.solve_batch(b, x, k);
    }
    EXPECT_FALSE(plan.telemetry().kernel_race.calibrated);
    return;
  }
  // Vector machine: the race explores scalar and vector on interleaved
  // batches and locks in a measured winner (2 epochs per choice by
  // default).
  for (int e = 0; e < 6; ++e) {
    plan.solve_batch(b, x, k);
  }
  const sp::PlanTelemetry& t = plan.telemetry();
  EXPECT_TRUE(t.kernel_race.calibrated);
  ASSERT_EQ(t.kernel_race.timings.size(), 2u);
  EXPECT_GT(t.kernel_race.timings[0].epochs, 0);
  EXPECT_GT(t.kernel_race.timings[1].epochs, 0);
  EXPECT_EQ(t.kernel_race.exploration_epochs, 4);
  EXPECT_TRUE(t.kernel == kn::KernelChoice::kScalar ||
              t.kernel == kn::KernelChoice::kVector);

  // Forced choices never race.
  sp::TrisolvePlan pinned(pool(), f.l, f.u,
                          plan_opts(sp::ExecutionStrategy::kDoacross, 4,
                                    sp::PlanLayout::kPacked,
                                    kn::KernelChoice::kVector));
  for (int e = 0; e < 6; ++e) {
    pinned.solve_batch(b, x, k);
  }
  EXPECT_FALSE(pinned.telemetry().kernel_race.calibrated);
  EXPECT_EQ(pinned.telemetry().kernel, kn::KernelChoice::kVector);
}

TEST(KernelRace, SingleRhsAndNarrowBatchesNeverFeedTheRace) {
  // Only batches with k >= kLaneMin execute lane kernels; single-RHS
  // solves and narrow (including one-column) batches must leave the race
  // untouched (their timings would be meaningless for it).
  const sp::IluFactors f = sp::ilu0(gen::five_point(12, 12));
  const index_t n = f.l.rows;
  const auto b1 = random_vec(static_cast<std::size_t>(n), 4);
  const auto b2 = random_vec(static_cast<std::size_t>(n * 2), 6);
  std::vector<double> x1(b1.size()), x2(b2.size());
  sp::TrisolvePlan plan(pool(), f.l, f.u,
                        plan_opts(sp::ExecutionStrategy::kDoacross, 4,
                                  sp::PlanLayout::kPacked,
                                  kn::KernelChoice::kAuto));
  for (int e = 0; e < 8; ++e) {
    plan.solve(b1, x1);
    plan.solve_batch(b2, x2, 2);
    plan.solve_batch(b2, x2, 1);
  }
  EXPECT_FALSE(plan.telemetry().kernel_race.calibrated);
  EXPECT_EQ(plan.telemetry().kernel_race.exploration_epochs, 0);
}

TEST(KernelRace, BatchDriverForwardsKnobsAndReportsDispatch) {
  const sp::Csr a = gen::five_point(13, 13);
  const auto b = random_vec(static_cast<std::size_t>(a.rows), 12);

  solve::BatchDriverOptions opts;
  opts.kernel = kn::KernelChoice::kScalar;
  solve::BatchDriver driver(pool(), a, opts);
  std::vector<double> x(b.size(), 0.0);
  driver.enqueue(b, x);
  const solve::BatchReport rep = driver.drain();
  const sp::PlanTelemetry& t = driver.preconditioner().plan().telemetry();
  EXPECT_EQ(t.isa, kn::dispatched_isa());
  EXPECT_EQ(t.kernel, kn::KernelChoice::kScalar);
  EXPECT_FALSE(t.kernel_race.calibrated);

  // And the scalar-pinned drain answers bitwise like the default drain.
  solve::BatchDriver driver2(pool(), a, solve::BatchDriverOptions{});
  std::vector<double> x2(b.size(), 0.0);
  driver2.enqueue(b, x2);
  const solve::BatchReport rep2 = driver2.drain();
  EXPECT_EQ(rep.converged, rep2.converged);
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], x2[i]) << i;
}
