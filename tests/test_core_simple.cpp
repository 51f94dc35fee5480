// Tests for the Figure 2 simple doacross (true dependences only).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/doacross.hpp"
#include "core/doconsider.hpp"
#include "core/linear_doacross.hpp"
#include "core/simple_doacross.hpp"
#include "gen/rng.hpp"
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

TEST(SimpleDoacross, PrefixSums) {
  const index_t n = 2000;
  std::vector<double> y(n, 0.0);
  core::DenseReadyTable ready(n);
  const auto stats = core::simple_doacross(
      pool(), n, std::span<double>(y), ready, [](auto& it) {
        const index_t i = it.index();
        it.lhs() = (i > 0 ? it.read(i - 1) : 0.0) + 1.0;
      });
  for (index_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[static_cast<std::size_t>(i)],
                     static_cast<double>(i + 1));
  }
  EXPECT_EQ(stats.inspect_seconds, 0.0);  // Figure 2 has no inspector
}

TEST(SimpleDoacross, RandomFanInMatchesReference) {
  const index_t n = 3000;
  gen::SplitMix64 rng(8);
  // Each iteration reads up to 3 random earlier offsets.
  std::vector<std::vector<index_t>> reads(static_cast<std::size_t>(n));
  for (index_t i = 1; i < n; ++i) {
    const int k = static_cast<int>(rng.next_below(4));
    for (int r = 0; r < k; ++r) {
      reads[static_cast<std::size_t>(i)].push_back(rng.next_index(i));
    }
  }
  auto body = [&reads](auto& it) {
    const index_t i = it.index();
    double acc = it.read_own() + 1.0;
    for (index_t j : reads[static_cast<std::size_t>(i)]) {
      acc += 0.125 * it.read(j);
    }
    it.lhs() = acc;
  };

  std::vector<double> y_ref(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    y_ref[static_cast<std::size_t>(i)] = static_cast<double>(i % 7);
  }
  std::vector<double> y_par = y_ref;

  core::simple_doacross_reference(n, std::span<double>(y_ref), body);
  core::DenseReadyTable ready(n);
  core::SimpleDoacrossOptions opts;
  opts.schedule = rt::Schedule::dynamic(8);
  core::simple_doacross(pool(), n, std::span<double>(y_par), ready, body,
                        opts);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(y_ref[static_cast<std::size_t>(i)],
              y_par[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(SimpleDoacross, ReorderedExecutionStillExact) {
  const index_t n = 1024;
  const index_t stride = 32;  // 32 interleaved chains
  auto body = [stride](auto& it) {
    const index_t i = it.index();
    it.lhs() = (i >= stride ? it.read(i - stride) : 0.0) + 1.0;
  };
  core::DepFn deps = [stride](index_t i, const core::DepVisitor& emit) {
    if (i >= stride) emit(i - stride);
  };
  const core::Reordering r = core::doconsider_order(n, deps);

  std::vector<double> y_ref(static_cast<std::size_t>(n), 0.0);
  core::simple_doacross_reference(n, std::span<double>(y_ref), body);

  std::vector<double> y_ord(static_cast<std::size_t>(n), 0.0);
  core::DenseReadyTable ready(n);
  core::SimpleDoacrossOptions opts;
  opts.order = r.order.data();
  core::simple_doacross(pool(), n, std::span<double>(y_ord), ready, body,
                        opts);
  EXPECT_EQ(y_ref, y_ord);
}

TEST(SimpleDoacross, ReadyTableReusedAcrossCalls) {
  const index_t n = 500;
  core::EpochReadyTable ready(n);
  for (int rep = 0; rep < 6; ++rep) {
    std::vector<double> y(static_cast<std::size_t>(n), 1.0);
    core::simple_doacross(pool(), n, std::span<double>(y), ready,
                          [](auto& it) {
                            const index_t i = it.index();
                            it.lhs() = (i > 0 ? it.read(i - 1) : 0.0) + 2.0;
                          });
    ASSERT_DOUBLE_EQ(y[static_cast<std::size_t>(n - 1)], 2.0 * n)
        << "rep " << rep;
  }
}

TEST(SimpleDoacross, EmptyAndUndersized) {
  core::DenseReadyTable ready(4);
  std::vector<double> y(4, 0.0);
  const auto s = core::simple_doacross(pool(), 0, std::span<double>(y),
                                       ready, [](auto&) { FAIL(); });
  EXPECT_EQ(s.wait_episodes, 0u);
  std::vector<double> tiny(2);
  EXPECT_THROW(core::simple_doacross(pool(), 4, std::span<double>(tiny),
                                     ready, [](auto&) {}),
               std::invalid_argument);
  EXPECT_THROW(core::simple_doacross(pool(), -1, std::span<double>(y), ready,
                                     [](auto&) { FAIL(); }),
               std::invalid_argument);
}

TEST(SimpleDoacross, IntegerValuesWork) {
  const index_t n = 256;
  std::vector<long> y(static_cast<std::size_t>(n), 0);
  core::DenseReadyTable ready(n);
  core::simple_doacross(pool(), n, std::span<long>(y), ready, [](auto& it) {
    const index_t i = it.index();
    it.lhs() = (i > 0 ? it.read(i - 1) : 0L) + static_cast<long>(i);
  });
  // y[i] = sum_{k<=i} k
  ASSERT_EQ(y[255], 255L * 256L / 2L);
}

namespace {

using Reads = std::vector<std::vector<index_t>>;

/// The loop body of the table test: the left-hand side plus one, plus an
/// eighth of every value the iteration reads.
auto reads_body(const Reads& reads) {
  return [&reads](auto& it) {
    double acc = it.lhs() + 1.0;
    for (index_t off : reads[static_cast<std::size_t>(it.index())]) {
      acc += 0.125 * it.read(off);
    }
    it.lhs() = acc;
  };
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One §2.3 loop y[c*i + d] = f(reads) with random reads over the whole
/// value space: true dependences, antidependences, the iteration's own
/// offset and offsets no iteration writes.
struct LinearCase {
  core::LinearWriter w;
  Reads reads;
  core::Reordering order;
  std::vector<double> y0, want;
};

LinearCase make_linear_case(core::LinearWriter w, std::uint64_t seed) {
  LinearCase lc{.w = w, .reads = Reads(static_cast<std::size_t>(w.n))};
  const index_t space = w.written_extent() + 5;
  gen::SplitMix64 rng(seed);
  for (auto& r : lc.reads) {
    const int k = static_cast<int>(rng.next_below(4));
    for (int j = 0; j < k; ++j) r.push_back(rng.next_index(space));
  }
  lc.order = core::doconsider_order(
      w.n, [&lc](index_t i, const core::DepVisitor& emit) {
        for (index_t off : lc.reads[static_cast<std::size_t>(i)]) {
          const index_t src = lc.w.writer_of(off);
          if (src != core::kNeverWritten && src < i) emit(src);
        }
      });
  lc.y0.resize(static_cast<std::size_t>(space));
  for (index_t i = 0; i < space; ++i) {
    lc.y0[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i % 11);
  }
  std::vector<index_t> writer(static_cast<std::size_t>(w.n));
  for (index_t i = 0; i < w.n; ++i) writer[static_cast<std::size_t>(i)] = w(i);
  lc.want = lc.y0;
  core::doacross_reference<double>(writer, std::span<double>(lc.want),
                                   reads_body(lc.reads));
  return lc;
}

}  // namespace

template <class Table>
class Fig2ExecutorTables : public ::testing::Test {};

using Fig2ReadyTables =
    ::testing::Types<core::DenseReadyTable, core::PaddedReadyTable,
                     core::LinearEpochReadyTable, core::EpochReadyTable>;
TYPED_TEST_SUITE(Fig2ExecutorTables, Fig2ReadyTables);

// Every ready table through both entries of the Figure 2 executor, each
// table (and engine) reused over all 96 calls.
TYPED_TEST(Fig2ExecutorTables, SimpleAndLinearMatchReferenceBitwise) {
  const index_t n = 480;
  gen::SplitMix64 rng(17);
  Reads simple_reads(static_cast<std::size_t>(n));
  for (index_t i = 1; i < n; ++i) {
    const int k = static_cast<int>(rng.next_below(4));
    for (int j = 0; j < k; ++j) {
      simple_reads[static_cast<std::size_t>(i)].push_back(rng.next_index(i));
    }
  }
  const core::Reordering simple_order = core::doconsider_order(
      n, [&](index_t i, const core::DepVisitor& emit) {
        for (index_t j : simple_reads[static_cast<std::size_t>(i)]) emit(j);
      });
  std::vector<double> simple_y0(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    simple_y0[static_cast<std::size_t>(i)] = static_cast<double>(i % 5);
  }
  std::vector<double> simple_want = simple_y0;
  core::simple_doacross_reference(n, std::span<double>(simple_want),
                                  reads_body(simple_reads));

  const LinearCase linear[] = {
      make_linear_case({.c = 1, .d = 0, .n = n}, 3),
      make_linear_case({.c = 2, .d = 3, .n = n}, 5),
      make_linear_case({.c = 3, .d = 1, .n = n}, 7)};

  // Flag tables must come back swept; epoch tables skip the sweep
  // (simple_doacross) or clear as a no-op (LinearDoacross), so every row
  // is still DONE until the next call's begin_epoch().
  const auto settled = [n](const TypeParam& t) -> ::testing::AssertionResult {
    if constexpr (!core::kEpochResetV<TypeParam>) {
      if (!t.pristine()) return ::testing::AssertionFailure() << "not swept";
    } else {
      for (index_t i = 0; i < n; ++i) {
        if (!t.is_done(i)) {
          return ::testing::AssertionFailure() << "row " << i << " unpublished";
        }
      }
    }
    return ::testing::AssertionSuccess();
  };

  TypeParam ready(n);
  core::LinearDoacross<double, TypeParam> lin(pool());
  for (const bool reordered : {false, true}) {
    for (const auto& sched :
         {rt::Schedule::static_block(), rt::Schedule::static_cyclic(1),
          rt::Schedule::dynamic(1), rt::Schedule::dynamic()}) {
      for (const unsigned nth : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << (reordered ? "doconsider" : "source") << " "
                     << rt::to_string(sched) << " threads " << nth);
        core::SimpleDoacrossOptions opts;
        opts.nthreads = nth;
        opts.schedule = sched;
        opts.order = reordered ? simple_order.order.data() : nullptr;
        std::vector<double> y = simple_y0;
        core::simple_doacross(pool(), n, std::span<double>(y), ready,
                              reads_body(simple_reads), opts);
        ASSERT_TRUE(same_bits(y, simple_want)) << "simple_doacross";
        ASSERT_TRUE(settled(ready)) << "simple_doacross";

        for (const LinearCase& lc : linear) {
          opts.order = reordered ? lc.order.order.data() : nullptr;
          y = lc.y0;
          lin.run(lc.w, std::span<double>(y), reads_body(lc.reads), opts);
          ASSERT_TRUE(same_bits(y, lc.want)) << "LinearDoacross c=" << lc.w.c;
          ASSERT_TRUE(settled(lin.ready_table()))
              << "LinearDoacross c=" << lc.w.c;
        }
      }
    }
  }
}
