// Tests for the dependence-aware schedule advisor.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/advisor.hpp"
#include "gen/block_operator.hpp"
#include "gen/testloop.hpp"
#include "gen/random_loop.hpp"
#include "sparse/ilu0.hpp"

namespace core = pdx::core;
namespace gen = pdx::gen;
namespace rt = pdx::rt;
using pdx::index_t;

namespace {

core::DepGraph graph_from_lists(std::vector<std::vector<index_t>> deps) {
  core::DepGraph g;
  g.ptr.push_back(0);
  for (const auto& d : deps) {
    for (index_t j : d) g.adj.push_back(j);
    g.ptr.push_back(static_cast<index_t>(g.adj.size()));
  }
  return g;
}

}  // namespace

TEST(Advisor, DoallGetsBlockSchedule) {
  const core::DepGraph g = graph_from_lists(
      std::vector<std::vector<index_t>>(100, std::vector<index_t>{}));
  const auto a = core::advise_schedule(g, 8);
  EXPECT_EQ(a.schedule.kind, rt::SchedKind::StaticBlock);
  EXPECT_FALSE(a.use_reordering);
  EXPECT_TRUE(a.worth_parallelizing);
}

TEST(Advisor, SerialChainNotWorthParallelizing) {
  std::vector<std::vector<index_t>> deps(64);
  for (index_t i = 1; i < 64; ++i) deps[static_cast<std::size_t>(i)] = {i - 1};
  const auto a = core::advise_schedule(graph_from_lists(std::move(deps)), 8);
  EXPECT_FALSE(a.worth_parallelizing);
  EXPECT_EQ(a.critical_path, 64);
  EXPECT_DOUBLE_EQ(a.avg_parallelism, 1.0);
}

TEST(Advisor, ShortDistanceDepsGetBlockSchedule) {
  // 10000 iterations, deps at distance <= 3, 8 procs -> block = 1250,
  // distance * 8 = 24 << block.
  std::vector<std::vector<index_t>> deps(10000);
  for (index_t i = 3; i < 10000; i += 2) {
    deps[static_cast<std::size_t>(i)] = {i - 3};
  }
  const auto a = core::advise_schedule(graph_from_lists(std::move(deps)), 8);
  EXPECT_EQ(a.schedule.kind, rt::SchedKind::StaticBlock);
  EXPECT_FALSE(a.use_reordering);
  EXPECT_TRUE(a.worth_parallelizing);
  EXPECT_EQ(a.max_distance, 3);
}

TEST(Advisor, LongDistanceDepsGetReorderedDynamic) {
  // Chains with stride n/4: long-distance, plenty of level parallelism.
  const index_t n = 1024;
  std::vector<std::vector<index_t>> deps(static_cast<std::size_t>(n));
  for (index_t i = n / 4; i < n; ++i) {
    deps[static_cast<std::size_t>(i)] = {i - n / 4};
  }
  const auto a = core::advise_schedule(graph_from_lists(std::move(deps)), 8);
  EXPECT_EQ(a.schedule.kind, rt::SchedKind::Dynamic);
  EXPECT_TRUE(a.use_reordering);
  EXPECT_TRUE(a.worth_parallelizing);
  EXPECT_DOUBLE_EQ(a.avg_parallelism, static_cast<double>(n) / 4.0);
}

TEST(Advisor, PaperTestLoopOddAndEven) {
  // Odd L: doall -> block. Even L: short distances -> block (E6's
  // measured winner for the Fig. 4 loop).
  const gen::TestLoop odd = gen::make_test_loop({.n = 2000, .m = 5, .l = 7});
  const auto a_odd =
      core::advise_schedule(gen::test_loop_deps(odd), 16);
  EXPECT_EQ(a_odd.schedule.kind, rt::SchedKind::StaticBlock);
  EXPECT_FALSE(a_odd.use_reordering);

  const gen::TestLoop even = gen::make_test_loop({.n = 2000, .m = 5, .l = 8});
  const auto a_even =
      core::advise_schedule(gen::test_loop_deps(even), 16);
  EXPECT_EQ(a_even.schedule.kind, rt::SchedKind::StaticBlock);
  EXPECT_EQ(a_even.max_distance, 3);  // L/2 - 1
}

TEST(Advisor, SparseFactorGetsReorderedDynamic) {
  // The ILU(0) factor of SPE5 has long-distance dependences (mean ~271):
  // the advisor must land on the Table 1 configuration.
  const auto l = pdx::sparse::ilu0(gen::matrix_spe5()).l;
  core::DepGraph g;
  g.ptr.assign(static_cast<std::size_t>(l.rows) + 1, 0);
  for (index_t i = 0; i < l.rows; ++i) {
    index_t c = 0;
    for (index_t col : l.row_cols(i)) {
      if (col < i) ++c;
    }
    g.ptr[static_cast<std::size_t>(i) + 1] =
        g.ptr[static_cast<std::size_t>(i)] + c;
  }
  g.adj.resize(static_cast<std::size_t>(g.ptr.back()));
  std::vector<index_t> cur(g.ptr.begin(), g.ptr.end() - 1);
  for (index_t i = 0; i < l.rows; ++i) {
    for (index_t col : l.row_cols(i)) {
      if (col < i) {
        g.adj[static_cast<std::size_t>(cur[static_cast<std::size_t>(i)]++)] =
            col;
      }
    }
  }
  const auto a = core::advise_schedule(g, 16);
  EXPECT_EQ(a.schedule.kind, rt::SchedKind::Dynamic);
  EXPECT_TRUE(a.use_reordering);
  EXPECT_GT(a.avg_parallelism, 10.0);
}

TEST(Advisor, ZeroProcsMeansHardwareWidth) {
  // procs == 0 follows the ThreadPool(width = 0) convention everywhere
  // else: normalize to the hardware width instead of throwing.
  std::vector<std::vector<index_t>> deps(256);
  for (index_t i = 1; i < 256; ++i) deps[static_cast<std::size_t>(i)] = {i - 1};
  const core::DepGraph g = graph_from_lists(std::move(deps));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto a0 = core::advise_schedule(g, 0);
  const auto ahw = core::advise_schedule(g, hw);
  EXPECT_EQ(a0.schedule.kind, ahw.schedule.kind);
  EXPECT_EQ(a0.strategy, ahw.strategy);
  EXPECT_EQ(a0.worth_parallelizing, ahw.worth_parallelizing);
}

TEST(Advisor, DepGraphAdviceNamesAStrategy) {
  // The DepGraph overload's four outcomes map onto the three executor
  // strategies.
  const auto doall = core::advise_schedule(
      graph_from_lists(
          std::vector<std::vector<index_t>>(64, std::vector<index_t>{})),
      4);
  EXPECT_EQ(doall.strategy, core::ExecStrategy::kLevelBarrier);

  std::vector<std::vector<index_t>> chain(64);
  for (index_t i = 1; i < 64; ++i) chain[static_cast<std::size_t>(i)] = {i - 1};
  EXPECT_EQ(core::advise_schedule(graph_from_lists(std::move(chain)), 4)
                .strategy,
            core::ExecStrategy::kSerial);

  // Short distances: still the paper's flag-based executor (the one
  // DoacrossEngine runs), configured static-block in source order.
  std::vector<std::vector<index_t>> shortd(10000);
  for (index_t i = 3; i < 10000; i += 2) {
    shortd[static_cast<std::size_t>(i)] = {i - 3};
  }
  const auto sd = core::advise_schedule(graph_from_lists(std::move(shortd)), 8);
  EXPECT_EQ(sd.strategy, core::ExecStrategy::kDoacross);
  EXPECT_EQ(sd.schedule.kind, rt::SchedKind::StaticBlock);
  EXPECT_FALSE(sd.use_reordering);

  std::vector<std::vector<index_t>> longd(1024);
  for (index_t i = 256; i < 1024; ++i) {
    longd[static_cast<std::size_t>(i)] = {i - 256};
  }
  EXPECT_EQ(core::advise_schedule(graph_from_lists(std::move(longd)), 8)
                .strategy,
            core::ExecStrategy::kDoacross);
}

TEST(Advisor, TrisolveStructureOverload) {
  // Wide, shallow wavefronts -> level-barrier; no flags needed.
  core::TrisolveStructure wide;
  wide.n = 1000;
  wide.nnz = 4000;
  wide.levels = 20;
  wide.avg_level_width = 50.0;
  wide.max_level_size = 80;
  wide.max_distance = 400;
  const auto lb = core::advise_schedule(wide, 8);
  EXPECT_EQ(lb.strategy, core::ExecStrategy::kLevelBarrier);
  EXPECT_TRUE(lb.worth_parallelizing);
  EXPECT_FALSE(lb.rationale.empty());

  // Chain: serial, not worth parallelizing.
  core::TrisolveStructure chain = wide;
  chain.levels = 1000;
  chain.avg_level_width = 1.0;
  const auto ser = core::advise_schedule(chain, 8);
  EXPECT_EQ(ser.strategy, core::ExecStrategy::kSerial);
  EXPECT_FALSE(ser.worth_parallelizing);

  // Moderate width: flag-based doacross, whatever the dependence
  // distance.
  core::TrisolveStructure banded = wide;
  banded.levels = 250;
  banded.avg_level_width = 4.0;
  banded.max_distance = 4;
  core::TrisolveStructure scattered = banded;
  scattered.max_distance = 700;
  for (const core::TrisolveStructure& s : {banded, scattered}) {
    const auto da = core::advise_schedule(s, 4);
    EXPECT_EQ(da.strategy, core::ExecStrategy::kDoacross);
  }

  // Single processor: nothing to overlap, serial regardless of shape.
  EXPECT_EQ(core::advise_schedule(wide, 1).strategy,
            core::ExecStrategy::kSerial);
}

TEST(Advisor, EmptyLoop) {
  core::DepGraph g;
  g.ptr = {0};
  const auto a = core::advise_schedule(g, 4);
  EXPECT_TRUE(a.worth_parallelizing);
  EXPECT_EQ(a.schedule.kind, rt::SchedKind::StaticBlock);
}

TEST(Advisor, FactorAdvisorFollowsEliminationWorkRatio) {
  // The factorization advisor sees the same dependence DAG as the solve
  // advisor but weighs each row as a whole elimination step, so its
  // thresholds admit parallelism earlier.
  core::TrisolveStructure wide;
  wide.n = 1000;
  wide.nnz = 4000;
  wide.levels = 20;
  wide.avg_level_width = 50.0;
  wide.max_level_size = 80;
  wide.max_distance = 400;
  wide.nnz_per_row = 4.0;
  const auto lb = core::advise_factor_schedule(wide, 8);
  EXPECT_EQ(lb.strategy, core::ExecStrategy::kLevelBarrier);
  EXPECT_TRUE(lb.worth_parallelizing);
  EXPECT_FALSE(lb.rationale.empty());

  // Width 1.4: the solve advisor runs this serially, but one elimination
  // row buys ~nnz/row updates — worth overlapping.
  core::TrisolveStructure narrow = wide;
  narrow.levels = 714;
  narrow.avg_level_width = 1.4;
  narrow.max_distance = 700;
  EXPECT_EQ(core::advise_schedule(narrow, 8).strategy,
            core::ExecStrategy::kSerial);
  EXPECT_EQ(core::advise_factor_schedule(narrow, 8).strategy,
            core::ExecStrategy::kDoacross);

  // A true chain still factors sequentially.
  core::TrisolveStructure chain = wide;
  chain.levels = 1000;
  chain.avg_level_width = 1.0;
  const auto ser = core::advise_factor_schedule(chain, 8);
  EXPECT_EQ(ser.strategy, core::ExecStrategy::kSerial);
  EXPECT_FALSE(ser.worth_parallelizing);

  // Width >= 1 row/processor already hides a barrier behind elimination
  // work (the solve advisor demands 2): procs=8, width 8 -> level-barrier.
  core::TrisolveStructure medium = wide;
  medium.levels = 125;
  medium.avg_level_width = 8.0;
  medium.max_distance = 700;
  EXPECT_EQ(core::advise_schedule(medium, 8).strategy,
            core::ExecStrategy::kDoacross);
  EXPECT_EQ(core::advise_factor_schedule(medium, 8).strategy,
            core::ExecStrategy::kLevelBarrier);

  // Short-distance dependences below the level-barrier width: doacross.
  core::TrisolveStructure banded = wide;
  banded.levels = 500;
  banded.avg_level_width = 2.0;
  banded.max_distance = 4;
  EXPECT_EQ(core::advise_factor_schedule(banded, 4).strategy,
            core::ExecStrategy::kDoacross);

  // Single processor / empty system: serial, nothing to overlap.
  EXPECT_EQ(core::advise_factor_schedule(wide, 1).strategy,
            core::ExecStrategy::kSerial);
  core::TrisolveStructure empty;
  EXPECT_EQ(core::advise_factor_schedule(empty, 8).strategy,
            core::ExecStrategy::kSerial);
}

namespace {

core::TrisolveStructure sample_structure() {
  core::TrisolveStructure s;
  s.n = 1000;
  s.nnz = 4000;
  s.levels = 20;
  s.avg_level_width = 50.0;
  s.max_level_size = 80;
  s.max_distance = 400;
  return s;
}

}  // namespace

TEST(TuningCache, StoreLookupRoundtripAndKeyDiscrimination) {
  core::TuningCache& cache = core::tuning_cache();
  cache.clear();

  const core::TrisolveStructure s = sample_structure();
  const core::TuningKey solve_key = core::make_tuning_key(s, 4, false);
  const core::TuningKey factor_key = core::make_tuning_key(s, 4, true);

  core::ExecStrategy out;
  EXPECT_FALSE(cache.lookup(solve_key, out));
  cache.store(solve_key, core::ExecStrategy::kDoacross);
  ASSERT_TRUE(cache.lookup(solve_key, out));
  EXPECT_EQ(out, core::ExecStrategy::kDoacross);

  // The factor flag separates solve winners from factorization winners
  // over the identical pattern; thread count is part of the key too.
  EXPECT_FALSE(cache.lookup(factor_key, out));
  EXPECT_FALSE(cache.lookup(core::make_tuning_key(s, 8, false), out));
  cache.store(factor_key, core::ExecStrategy::kLevelBarrier);
  ASSERT_TRUE(cache.lookup(factor_key, out));
  EXPECT_EQ(out, core::ExecStrategy::kLevelBarrier);
  ASSERT_TRUE(cache.lookup(solve_key, out));
  EXPECT_EQ(out, core::ExecStrategy::kDoacross);

  // A re-store over the same key overwrites (newest measurement wins).
  cache.store(solve_key, core::ExecStrategy::kSerial);
  ASSERT_TRUE(cache.lookup(solve_key, out));
  EXPECT_EQ(out, core::ExecStrategy::kSerial);

  const core::TuningCacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.stores, 3u);
  EXPECT_EQ(st.hits, 4u);
  EXPECT_EQ(st.misses, 3u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(solve_key, out));
}

TEST(TuningCache, StrategyAndWalkOrderVerdictsAreSeparate) {
  // One key holds a strategy verdict and a walk-order verdict; either
  // may exist without the other, and storing one never answers for the
  // other.
  core::TuningCache& cache = core::tuning_cache();
  cache.clear();
  const core::TuningKey key = core::make_tuning_key(sample_structure(), 1,
                                                    false);
  core::ExecStrategy strategy;
  core::WalkOrder order;
  cache.store(key, core::WalkOrder::kWavefront);
  EXPECT_FALSE(cache.lookup(key, strategy));
  ASSERT_TRUE(cache.lookup(key, order));
  EXPECT_EQ(order, core::WalkOrder::kWavefront);
  cache.store(key, core::ExecStrategy::kSerial);
  cache.store(key, core::WalkOrder::kSource);
  ASSERT_TRUE(cache.lookup(key, strategy));
  EXPECT_EQ(strategy, core::ExecStrategy::kSerial);
  ASSERT_TRUE(cache.lookup(key, order));
  EXPECT_EQ(order, core::WalkOrder::kSource);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().stores, 3u);
  cache.clear();
}

TEST(TuningCache, ConcurrentStoresAndLookupsAreSafe) {
  // The cache is process-wide shared mutable state: plans on different
  // pools may race store() against lookup(). Hammer it from several
  // threads (TSan covers this test in CI) and check every key resolves.
  core::TuningCache& cache = core::tuning_cache();
  cache.clear();
  const core::TrisolveStructure base = sample_structure();

  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const int k = (t + round) % kKeys;
        core::TrisolveStructure s = base;
        s.n = base.n + k;
        const core::TuningKey key =
            core::make_tuning_key(s, 4, (t % 2) != 0);
        cache.store(key, core::ExecStrategy::kDoacross);
        core::ExecStrategy out;
        cache.lookup(key, out);
      }
    });
  }
  for (auto& w : workers) w.join();

  for (int k = 0; k < kKeys; ++k) {
    core::TrisolveStructure s = base;
    s.n = base.n + k;
    core::ExecStrategy out;
    ASSERT_TRUE(cache.lookup(core::make_tuning_key(s, 4, false), out));
    EXPECT_EQ(out, core::ExecStrategy::kDoacross);
    ASSERT_TRUE(cache.lookup(core::make_tuning_key(s, 4, true), out));
  }
  cache.clear();
}
