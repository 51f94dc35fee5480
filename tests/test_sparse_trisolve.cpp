// Tests for triangular solves: sequential vs dense reference, and all
// parallel executors (doacross, doacross+doconsider, level-scheduled)
// bitwise against the sequential Fig. 7 loop.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gen/block_operator.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/dense.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/levels.hpp"
#include "sparse/par_trisolve.hpp"
#include "sparse/spmv.hpp"
#include "sparse/trisolve.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace core = pdx::core;
namespace rt = pdx::rt;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

std::vector<double> random_rhs(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);
  return rhs;
}

}  // namespace

TEST(TrisolveSeq, LowerMatchesDenseReference) {
  const sp::Csr a = gen::five_point(6, 6);
  const sp::IluFactors f = sp::ilu0(a);
  const auto rhs = random_rhs(a.rows, 1);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  sp::trisolve_lower_seq(f.l, rhs, y);

  const auto want = sp::Dense::from_csr(f.l).lower_solve(rhs);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(TrisolveSeq, UpperMatchesDenseReference) {
  const sp::Csr a = gen::five_point(6, 6);
  const sp::IluFactors f = sp::ilu0(a);
  const auto rhs = random_rhs(a.rows, 2);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  sp::trisolve_upper_seq(f.u, rhs, y);

  const auto want = sp::Dense::from_csr(f.u).upper_solve(rhs);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(TrisolveSeq, LUSolveRecoversOriginalSolution) {
  // Solve A x = b through the complete LU of a dense-pattern matrix.
  sp::CsrBuilder b(4, 4);
  const double vals[4][4] = {
      {10, 1, 2, 0.5}, {1, 9, 0.5, 1}, {2, 0.5, 8, 1}, {0.5, 1, 1, 7}};
  for (index_t r = 0; r < 4; ++r) {
    for (index_t c = 0; c < 4; ++c) b.add(r, c, vals[r][c]);
  }
  const sp::Csr a = b.build();
  const sp::IluFactors f = sp::ilu0(a);  // complete LU here
  const std::vector<double> x_true = {1.0, -2.0, 3.0, -4.0};
  std::vector<double> rhs(4);
  sp::spmv_parallel(pool(), a, x_true, rhs, 1);

  std::vector<double> t(4), x(4);
  sp::trisolve_lower_seq(f.l, rhs, t);
  sp::trisolve_upper_seq(f.u, t, x);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

struct TrisolveCase {
  const char* name;
  sp::Csr (*make)();
};

namespace matrices {
sp::Csr spe2() { return gen::matrix_spe2(); }
sp::Csr spe5() { return gen::matrix_spe5(); }
sp::Csr p5() { return gen::five_point(20, 20); }
sp::Csr p7() { return gen::seven_point(8, 8, 8); }
sp::Csr p9() { return gen::nine_point(20, 20); }
}  // namespace matrices

class ParTrisolveSweep : public ::testing::TestWithParam<TrisolveCase> {};

TEST_P(ParTrisolveSweep, DoacrossMatchesSequentialBitwise) {
  const sp::Csr a = GetParam().make();
  const sp::Csr l = sp::ilu0(a).l;
  const auto rhs = random_rhs(l.rows, 3);

  std::vector<double> y_seq(static_cast<std::size_t>(l.rows));
  sp::trisolve_lower_seq(l, rhs, y_seq);

  for (const auto& sched :
       {rt::Schedule::static_block(), rt::Schedule::static_cyclic(1),
        rt::Schedule::dynamic(8)}) {
    std::vector<double> y_par(static_cast<std::size_t>(l.rows));
    sp::TrisolveOptions opts;
    opts.schedule = sched;
    sp::trisolve_doacross(pool(), l, rhs, y_par, opts);
    for (index_t i = 0; i < l.rows; ++i) {
      ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
                y_par[static_cast<std::size_t>(i)])
          << GetParam().name << " " << rt::to_string(sched) << " row " << i;
    }
  }
}

TEST_P(ParTrisolveSweep, DoconsiderOrderMatchesSequentialBitwise) {
  const sp::Csr a = GetParam().make();
  const sp::Csr l = sp::ilu0(a).l;
  const auto rhs = random_rhs(l.rows, 4);

  std::vector<double> y_seq(static_cast<std::size_t>(l.rows));
  sp::trisolve_lower_seq(l, rhs, y_seq);

  const core::Reordering r = sp::lower_solve_reordering(l);
  std::vector<double> y_ord(static_cast<std::size_t>(l.rows));
  sp::TrisolveOptions opts;
  opts.order = r.order.data();
  sp::trisolve_doacross(pool(), l, rhs, y_ord, opts);
  for (index_t i = 0; i < l.rows; ++i) {
    ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
              y_ord[static_cast<std::size_t>(i)])
        << GetParam().name << " row " << i;
  }
}

TEST_P(ParTrisolveSweep, LevelScheduledMatchesSequentialBitwise) {
  const sp::Csr a = GetParam().make();
  const sp::Csr l = sp::ilu0(a).l;
  const auto rhs = random_rhs(l.rows, 5);

  std::vector<double> y_seq(static_cast<std::size_t>(l.rows));
  sp::trisolve_lower_seq(l, rhs, y_seq);

  const core::Reordering r = sp::lower_solve_reordering(l);
  std::vector<double> y_lvl(static_cast<std::size_t>(l.rows));
  sp::trisolve_levelsched(pool(), l, rhs, y_lvl, r);
  for (index_t i = 0; i < l.rows; ++i) {
    ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
              y_lvl[static_cast<std::size_t>(i)])
        << GetParam().name << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperMatrices, ParTrisolveSweep,
    ::testing::Values(TrisolveCase{"SPE2", matrices::spe2},
                      TrisolveCase{"SPE5", matrices::spe5},
                      TrisolveCase{"5-PT", matrices::p5},
                      TrisolveCase{"7-PT", matrices::p7},
                      TrisolveCase{"9-PT", matrices::p9}),
    [](const ::testing::TestParamInfo<TrisolveCase>& pinfo) {
      std::string n = pinfo.param.name;
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

TEST(ParTrisolve, ReusedReadyTableStaysConsistent) {
  const sp::Csr l = sp::ilu0(gen::five_point(15, 15)).l;
  core::DenseReadyTable ready(l.rows);
  const auto rhs = random_rhs(l.rows, 6);
  std::vector<double> y_seq(static_cast<std::size_t>(l.rows));
  sp::trisolve_lower_seq(l, rhs, y_seq);

  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> y(static_cast<std::size_t>(l.rows));
    sp::trisolve_doacross(pool(), l, rhs, y, ready, {});
    ASSERT_TRUE(ready.pristine()) << "rep " << rep;
    for (index_t i = 0; i < l.rows; ++i) {
      ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(MultiRhsTrisolve, EachColumnMatchesSingleSolveBitwise) {
  const sp::Csr l = sp::ilu0(gen::five_point(12, 12)).l;
  const index_t n = l.rows, nrhs = 5;
  gen::SplitMix64 rng(21);
  std::vector<double> rhs(static_cast<std::size_t>(n * nrhs));
  for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);

  std::vector<double> y_multi(static_cast<std::size_t>(n * nrhs));
  sp::trisolve_lower_seq_multi(l, rhs, y_multi, nrhs);

  for (index_t r = 0; r < nrhs; ++r) {
    std::vector<double> rhs1(static_cast<std::size_t>(n)),
        y1(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      rhs1[static_cast<std::size_t>(i)] =
          rhs[static_cast<std::size_t>(i * nrhs + r)];
    }
    sp::trisolve_lower_seq(l, rhs1, y1);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(y1[static_cast<std::size_t>(i)],
                y_multi[static_cast<std::size_t>(i * nrhs + r)])
          << "rhs " << r << " row " << i;
    }
  }
}

TEST(MultiRhsTrisolve, DoacrossMultiMatchesSequentialMulti) {
  const sp::Csr l = sp::ilu0(gen::matrix_spe5()).l;
  const index_t n = l.rows, nrhs = 8;
  gen::SplitMix64 rng(22);
  std::vector<double> rhs(static_cast<std::size_t>(n * nrhs));
  for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);

  std::vector<double> y_seq(static_cast<std::size_t>(n * nrhs));
  sp::trisolve_lower_seq_multi(l, rhs, y_seq, nrhs);

  core::DenseReadyTable ready(n);
  const core::Reordering r = sp::lower_solve_reordering(l);
  for (const index_t* order : {static_cast<const index_t*>(nullptr),
                               r.order.data()}) {
    std::vector<double> y_par(static_cast<std::size_t>(n * nrhs));
    sp::TrisolveOptions opts;
    opts.order = order;
    sp::trisolve_doacross_multi(pool(), l, rhs, y_par, nrhs, ready, opts);
    for (std::size_t i = 0; i < y_seq.size(); ++i) {
      ASSERT_EQ(y_seq[i], y_par[i]) << (order ? "reordered" : "source") << i;
    }
  }
}

TEST(MultiRhsTrisolve, RejectsBadArguments) {
  const sp::Csr l = sp::ilu0(gen::five_point(4, 4)).l;
  std::vector<double> rhs(static_cast<std::size_t>(l.rows)), y = rhs;
  EXPECT_THROW(sp::trisolve_lower_seq_multi(l, rhs, y, 0),
               std::invalid_argument);
  EXPECT_THROW(sp::trisolve_lower_seq_multi(l, rhs, y, 2),  // too small
               std::invalid_argument);
  core::DenseReadyTable ready(l.rows);
  EXPECT_THROW(
      sp::trisolve_doacross_multi(pool(), l, rhs, y, 2, ready, {}),
      std::invalid_argument);
}

TEST(UpperTrisolve, DoacrossMatchesSequentialBitwise) {
  const sp::Csr u = sp::ilu0(gen::seven_point(7, 7, 7)).u;
  const auto rhs = random_rhs(u.rows, 24);
  std::vector<double> y_seq(static_cast<std::size_t>(u.rows));
  sp::trisolve_upper_seq(u, rhs, y_seq);

  const core::Reordering r = sp::upper_solve_reordering(u);
  core::DenseReadyTable ready(u.rows);
  for (const index_t* order : {static_cast<const index_t*>(nullptr),
                               r.order.data()}) {
    std::vector<double> y_par(static_cast<std::size_t>(u.rows));
    sp::TrisolveOptions opts;
    opts.order = order;
    sp::trisolve_upper_doacross(pool(), u, rhs, y_par, ready, opts);
    for (index_t i = 0; i < u.rows; ++i) {
      ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
                y_par[static_cast<std::size_t>(i)])
          << (order ? "reordered" : "source") << " row " << i;
    }
  }
}

TEST(UpperTrisolve, ReorderingIsValidSchedule) {
  const sp::Csr u = sp::ilu0(gen::matrix_spe2()).u;
  const core::Reordering r = sp::upper_solve_reordering(u);
  // Validity: every dependence (c > i in row i) sits earlier in order.
  std::vector<index_t> position(static_cast<std::size_t>(u.rows));
  for (index_t k = 0; k < u.rows; ++k) {
    position[static_cast<std::size_t>(r.order[static_cast<std::size_t>(k)])] = k;
  }
  for (index_t i = 0; i < u.rows; ++i) {
    for (index_t c : u.row_cols(i)) {
      if (c > i) {
        ASSERT_LT(position[static_cast<std::size_t>(c)],
                  position[static_cast<std::size_t>(i)])
            << "row " << i << " dep " << c;
      }
    }
  }
  // Levels: producers strictly lower level than consumers.
  const auto lv = sp::upper_solve_levels(u);
  for (index_t i = 0; i < u.rows; ++i) {
    for (index_t c : u.row_cols(i)) {
      if (c > i) {
        ASSERT_GT(lv[static_cast<std::size_t>(i)],
                  lv[static_cast<std::size_t>(c)]);
      }
    }
  }
}

TEST(MachineEmulation, AllExecutorsStayBitwiseEqualWithWorkReps) {
  // The Multimax-emulation knob folds identical arithmetic into every
  // executor, so results remain bitwise comparable at any setting.
  const sp::Csr l = sp::ilu0(gen::five_point(14, 14)).l;
  const auto rhs = random_rhs(l.rows, 31);
  const int work = 17;

  std::vector<double> y_seq(static_cast<std::size_t>(l.rows));
  sp::trisolve_lower_seq(l, rhs, y_seq, work);

  const core::Reordering r = sp::lower_solve_reordering(l);
  core::DenseReadyTable ready(l.rows);
  sp::TrisolveOptions opts;
  opts.work_reps = work;
  opts.order = r.order.data();
  std::vector<double> y_dx(static_cast<std::size_t>(l.rows));
  sp::trisolve_doacross(pool(), l, rhs, y_dx, ready, opts);

  std::vector<double> y_ls(static_cast<std::size_t>(l.rows));
  sp::trisolve_levelsched(pool(), l, rhs, y_ls, r, 0, work);

  for (index_t i = 0; i < l.rows; ++i) {
    ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
              y_dx[static_cast<std::size_t>(i)])
        << i;
    ASSERT_EQ(y_seq[static_cast<std::size_t>(i)],
              y_ls[static_cast<std::size_t>(i)])
        << i;
  }
  // And the knob does change the values relative to work_reps = 0 (it is
  // real arithmetic, not a timing no-op).
  std::vector<double> y_plain(static_cast<std::size_t>(l.rows));
  sp::trisolve_lower_seq(l, rhs, y_plain);
  bool differs = false;
  for (index_t i = 0; i < l.rows && !differs; ++i) {
    differs = y_plain[static_cast<std::size_t>(i)] !=
              y_seq[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(differs);
}

TEST(ParTrisolve, WaitStatsShrinkWithDoconsider) {
  const sp::Csr l = sp::ilu0(gen::seven_point(12, 12, 12)).l;
  const auto rhs = random_rhs(l.rows, 7);
  std::vector<double> y(static_cast<std::size_t>(l.rows));

  sp::TrisolveOptions src;
  src.schedule = rt::Schedule::static_block();
  const auto s_src = sp::trisolve_doacross(pool(), l, rhs, y, src);

  const core::Reordering r = sp::lower_solve_reordering(l);
  sp::TrisolveOptions ord = src;
  ord.order = r.order.data();
  const auto s_ord = sp::trisolve_doacross(pool(), l, rhs, y, ord);

  // Static-block source order serializes almost everything on a stencil
  // factor; doconsider order should wait far less. Generous slack keeps
  // the assertion robust on loaded machines.
  EXPECT_LT(static_cast<double>(s_ord.wait_rounds),
            0.9 * static_cast<double>(s_src.wait_rounds) + 10000.0);
}

// Every ready table through every unplanned doacross entry: one table is
// reused across calls that alternate the lower and upper solves, under
// every schedule, source and doconsider order, and 1/2/4 threads.
template <class Ready>
class UnplannedTrisolveTables : public ::testing::Test {};

using ReadyTables =
    ::testing::Types<core::DenseReadyTable, core::PaddedReadyTable,
                     core::LinearEpochReadyTable, core::EpochReadyTable>;
TYPED_TEST_SUITE(UnplannedTrisolveTables, ReadyTables);

TYPED_TEST(UnplannedTrisolveTables, EveryEntryMatchesSequentialBitwise) {
  const sp::IluFactors f = sp::ilu0(gen::seven_point(6, 6, 6));
  const index_t n = f.l.rows;
  const core::Reordering lower_order = sp::lower_solve_reordering(f.l);
  const core::Reordering upper_order = sp::upper_solve_reordering(f.u);
  const index_t widths[] = {1, 3, 8};
  const auto rhs = random_rhs(n * 8, 41);

  std::vector<double> want_l(static_cast<std::size_t>(n)),
      want_u(static_cast<std::size_t>(n));
  sp::trisolve_lower_seq(f.l, rhs, want_l);
  sp::trisolve_upper_seq(f.u, rhs, want_u);
  std::vector<std::vector<double>> want_multi;
  for (const index_t nrhs : widths) {
    want_multi.emplace_back(static_cast<std::size_t>(n * nrhs));
    sp::trisolve_lower_seq_multi(f.l, rhs, want_multi.back(), nrhs);
  }

  // Unwritten rows stay NaN and fail the comparison.
  const auto fresh = [](const std::vector<double>& like) {
    return std::vector<double>(like.size(), std::nan(""));
  };
  TypeParam ready(n);
  // Non-epoch tables must come back swept by the postprocessing phase;
  // epoch tables skip the sweep, so every row is still DONE in the
  // current epoch until the next call's begin_epoch().
  const auto check_table = [&]() -> ::testing::AssertionResult {
    if constexpr (!core::kEpochResetV<TypeParam>) {
      if (!ready.pristine()) {
        return ::testing::AssertionFailure() << "flags not swept";
      }
    } else {
      for (index_t i = 0; i < n; ++i) {
        if (!ready.is_done(i)) {
          return ::testing::AssertionFailure() << "row " << i << " unpublished";
        }
      }
    }
    return ::testing::AssertionSuccess();
  };

  for (const bool reordered : {false, true}) {
    for (const auto& sched :
         {rt::Schedule::static_block(), rt::Schedule::static_cyclic(1),
          rt::Schedule::dynamic(1), rt::Schedule::dynamic()}) {
      for (const unsigned nth : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << (reordered ? "doconsider" : "source") << " "
                     << rt::to_string(sched) << " threads " << nth);
        sp::TrisolveOptions lo;
        lo.nthreads = nth;
        lo.schedule = sched;
        sp::TrisolveOptions up = lo;
        if (reordered) {
          lo.order = lower_order.order.data();
          up.order = upper_order.order.data();
        }
        // Four lower solves (single RHS, then multi-RHS at each width),
        // each followed by an upper solve, all through the same table.
        for (std::size_t call = 0; call <= std::size(widths); ++call) {
          if (call == 0) {
            auto y = fresh(want_l);
            sp::trisolve_doacross(pool(), f.l, rhs, y, ready, lo);
            ASSERT_EQ(want_l, y) << "lower";
          } else {
            const index_t nrhs = widths[call - 1];
            auto y = fresh(want_multi[call - 1]);
            sp::trisolve_doacross_multi(pool(), f.l, rhs, y, nrhs, ready, lo);
            ASSERT_EQ(want_multi[call - 1], y) << "multi nrhs " << nrhs;
          }
          ASSERT_TRUE(check_table()) << "after lower call " << call;

          auto yu = fresh(want_u);
          sp::trisolve_upper_doacross(pool(), f.u, rhs, yu, ready, up);
          ASSERT_EQ(want_u, yu) << "upper";
          ASSERT_TRUE(check_table()) << "after upper call " << call;
        }
      }
    }
  }
}
