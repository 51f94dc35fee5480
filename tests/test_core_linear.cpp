// Tests for the linear-subscript (inspector-free) doacross of §2.3:
// closed-form writer inversion, equivalence with the general engine, and
// the paper's claim that the preprocessing phase disappears.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/doacross.hpp"
#include "core/linear_doacross.hpp"
#include "gen/testloop.hpp"
#include "runtime/thread_pool.hpp"

namespace core = pdx::core;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

}  // namespace

TEST(LinearWriter, InvertsItsOwnMap) {
  const core::LinearWriter w{.c = 2, .d = 5, .n = 100};
  for (index_t i = 0; i < w.n; ++i) {
    EXPECT_EQ(w.writer_of(w(i)), i);
  }
}

TEST(LinearWriter, RejectsNonImageOffsets) {
  const core::LinearWriter w{.c = 2, .d = 5, .n = 100};
  EXPECT_EQ(w.writer_of(4), core::kNeverWritten);   // below d
  EXPECT_EQ(w.writer_of(6), core::kNeverWritten);   // wrong residue
  EXPECT_EQ(w.writer_of(5 + 2 * 100), core::kNeverWritten);  // past n
  EXPECT_EQ(w.writer_of(0), core::kNeverWritten);
}

TEST(LinearWriter, WrittenExtentIsTight) {
  const core::LinearWriter w{.c = 3, .d = 2, .n = 10};
  EXPECT_EQ(w.written_extent(), 3 * 9 + 2 + 1);
  const core::LinearWriter empty{.c = 3, .d = 2, .n = 0};
  EXPECT_EQ(empty.written_extent(), 0);
}

TEST(LinearDoacross, PrefixChain) {
  // y[i] = y[i-1] + 1 with identity writer (c=1, d=0).
  const index_t n = 1000;
  std::vector<double> y(n, 0.0);
  core::LinearDoacross<double> eng(pool());
  const auto stats =
      eng.run({.c = 1, .d = 0, .n = n}, std::span<double>(y), [](auto& it) {
        const index_t i = it.index();
        if (i > 0) it.lhs() = it.read(i - 1) + 1.0;
      });
  for (index_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(y[i], static_cast<double>(i));
  // The §2.3 claim: no inspector phase at all.
  EXPECT_EQ(stats.inspect_seconds, 0.0);
}

TEST(LinearDoacross, MatchesGeneralEngineOnPaperLoop) {
  // The paper's own initialization a(i) = 2i is linear: c = 2, d = base.
  for (int l : {1, 2, 4, 5, 8, 12, 14}) {
    const gen::TestLoop tl = gen::make_test_loop({.n = 2000, .m = 5, .l = l});
    std::vector<double> y_ref = gen::make_initial_y(tl);
    gen::run_test_loop_seq(tl, y_ref);

    std::vector<double> y_lin = gen::make_initial_y(tl);
    // y must also cover read offsets beyond the written extent.
    core::LinearDoacross<double> eng(pool());
    eng.run({.c = 2, .d = tl.base, .n = tl.params.n},
            std::span<double>(y_lin),
            [&tl](auto& it) { gen::test_loop_body(tl, it); });

    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      ASSERT_EQ(y_ref[i], y_lin[i]) << "L=" << l << " offset " << i;
    }
  }
}

TEST(LinearDoacross, StrideThreeWriterWithGaps) {
  // Writers hit offsets {1, 4, 7, ...}; reads probe the gaps (old values)
  // and the previous writer (true dep).
  const index_t n = 500;
  const core::LinearWriter w{.c = 3, .d = 1, .n = n};
  std::vector<double> y0(w.written_extent() + 3);
  for (std::size_t i = 0; i < y0.size(); ++i) y0[i] = static_cast<double>(i);

  // Reference through the general engine.
  std::vector<index_t> writer(n);
  for (index_t i = 0; i < n; ++i) writer[i] = w(i);
  auto body = [&w](auto& it) {
    const index_t i = it.index();
    it.lhs() += it.read(w(i) + 1);           // gap: never written
    if (i > 0) it.lhs() += it.read(w(i - 1));  // previous writer: true dep
  };
  std::vector<double> y_ref = y0;
  core::doacross_reference<double>(writer, std::span<double>(y_ref), body);

  std::vector<double> y_lin = y0;
  core::LinearDoacross<double> eng(pool());
  eng.run(w, std::span<double>(y_lin), body);

  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    ASSERT_EQ(y_ref[i], y_lin[i]) << i;
  }
}

TEST(LinearDoacross, AllSchedulesAgree) {
  const gen::TestLoop tl = gen::make_test_loop({.n = 3000, .m = 3, .l = 6});
  std::vector<double> y_ref = gen::make_initial_y(tl);
  gen::run_test_loop_seq(tl, y_ref);

  for (const auto& sched :
       {rt::Schedule::static_block(), rt::Schedule::static_cyclic(2),
        rt::Schedule::dynamic(32)}) {
    std::vector<double> y_lin = gen::make_initial_y(tl);
    core::LinearDoacross<double> eng(pool());
    core::SimpleDoacrossOptions opts;
    opts.schedule = sched;
    eng.run({.c = 2, .d = tl.base, .n = tl.params.n}, std::span<double>(y_lin),
            [&tl](auto& it) { gen::test_loop_body(tl, it); }, opts);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      ASSERT_EQ(y_ref[i], y_lin[i]) << rt::to_string(sched) << " " << i;
    }
  }
}

TEST(LinearDoacross, RejectsBadArguments) {
  core::LinearDoacross<double> eng(pool());
  std::vector<double> y(10);
  EXPECT_THROW(eng.run({.c = 0, .d = 0, .n = 5}, std::span<double>(y),
                       [](auto&) {}),
               std::invalid_argument);
  EXPECT_THROW(eng.run({.c = 4, .d = 0, .n = 5}, std::span<double>(y),
                       [](auto&) {}),
               std::invalid_argument);  // written extent 17 > y.size()
  std::vector<double> y6(6);
  EXPECT_THROW(eng.run({.c = 2, .d = -1, .n = 4}, std::span<double>(y6),
                       [](auto&) {}),
               std::invalid_argument);  // iteration 0 would write y[-1]
  EXPECT_THROW(eng.run({.c = 1, .d = 0, .n = -1}, std::span<double>(y),
                       [](auto&) {}),
               std::invalid_argument);
}

TEST(LinearDoacross, EpochReadyVariantReusable) {
  const index_t n = 400;
  core::LinearDoacross<double, core::EpochReadyTable> eng(pool());
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> y(n, 0.0);
    eng.run({.c = 1, .d = 0, .n = n}, std::span<double>(y), [](auto& it) {
      const index_t i = it.index();
      if (i > 0) it.lhs() = it.read(i - 1) + 1.0;
    });
    ASSERT_DOUBLE_EQ(y[n - 1], static_cast<double>(n - 1)) << "rep " << rep;
  }
}
