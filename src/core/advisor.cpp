#include "core/advisor.hpp"

#include <algorithm>
#include <thread>

#include "core/analysis.hpp"

namespace pdx::core {

namespace {

/// procs == 0 means "hardware width", the ThreadPool(width = 0) /
/// DoacrossOptions::nthreads = 0 convention used everywhere else.
unsigned normalize_procs(unsigned procs) noexcept {
  if (procs != 0) return procs;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ScheduleAdvice advise_schedule(const DepGraph& g, unsigned procs) {
  procs = normalize_procs(procs);
  const index_t n = g.iterations();
  ScheduleAdvice a;

  if (n == 0 || g.edges() == 0) {
    a.schedule = rt::Schedule::static_block();
    a.use_reordering = false;
    a.strategy = ExecStrategy::kLevelBarrier;  // one wavefront: a doall
    a.avg_parallelism = static_cast<double>(n);
    a.rationale =
        "no cross-iteration dependences: doall semantics, block split "
        "for locality";
    return a;
  }

  const std::vector<index_t> levels = dependence_levels(n, g.as_fn());
  a.critical_path =
      1 + *std::max_element(levels.begin(), levels.end());
  a.avg_parallelism =
      static_cast<double>(n) / static_cast<double>(a.critical_path);

  const DistanceHistogram h = dependence_distance_histogram(g);
  a.max_distance = h.max_distance;

  if (a.avg_parallelism < 1.5) {
    // The DAG is (nearly) a serial chain: no schedule can help, and the
    // flag traffic only adds cost.
    a.schedule = rt::Schedule::static_block();
    a.use_reordering = false;
    a.worth_parallelizing = false;
    a.strategy = ExecStrategy::kSerial;
    a.rationale =
        "average parallelism < 1.5: dependence chain is effectively "
        "serial; run sequentially";
    return a;
  }

  // Block size each processor would own under a static split.
  const index_t block = std::max<index_t>(1, n / static_cast<index_t>(procs));
  if (a.max_distance * 8 <= block) {
    // Dependences are short relative to the block: at most 1/8 of each
    // block chains across the boundary, the rest is intra-block and free
    // (bench E6: static-block beat every alternative on the Fig. 4 loop).
    // Still the flag-based doacross — the executor DoacrossEngine runs —
    // just on a static-block schedule in source order.
    a.schedule = rt::Schedule::static_block();
    a.use_reordering = false;
    a.strategy = ExecStrategy::kDoacross;
    a.rationale =
        "max dependence distance is small versus the per-processor block: "
        "static-block keeps dependences intra-thread";
    return a;
  }

  // General case: level-order execution with round-robin issue (bench E6
  // and Table 1: dynamic/1 + doconsider order on every sparse factor).
  a.schedule = rt::Schedule::dynamic(1);
  a.use_reordering = true;
  a.strategy = ExecStrategy::kDoacross;
  a.rationale =
      "long-distance dependences: execute in doconsider (wavefront) order "
      "with dynamic single-iteration issue";
  return a;
}

namespace {

/// One decision ladder serves both the solve and the factorization
/// advisors; only the thresholds and the rationale wording differ. It
/// names a strategy only: the plan's executor core fixes the flag walk's
/// schedule and order itself (core::DagPlan).
/// The factorization's looser thresholds encode its heavier rows —
/// every elimination row does ~nnz/row of a solve row's work, so
/// synchronization amortizes sooner (serial cutoff 1.2 vs 1.5, a
/// barrier hidden by 1 row/processor vs 2).
struct StrategyLadder {
  double serial_width;   ///< below this avg wavefront width: serial
  double wide_per_proc;  ///< width >= max(4, this * procs): level-barrier
  const char* empty_rationale;
  const char* one_proc_rationale;
  const char* serial_rationale;
  const char* level_rationale;
  const char* doacross_rationale;
};

ScheduleAdvice advise_trisolve_shaped(const TrisolveStructure& s,
                                      unsigned procs,
                                      const StrategyLadder& l) {
  procs = normalize_procs(procs);
  ScheduleAdvice a;
  a.critical_path = s.levels;
  a.avg_parallelism = s.avg_level_width;
  a.max_distance = s.max_distance;

  if (s.n == 0) {
    a.worth_parallelizing = false;
    a.strategy = ExecStrategy::kSerial;
    a.rationale = l.empty_rationale;
    return a;
  }

  if (procs == 1) {
    a.worth_parallelizing = false;
    a.strategy = ExecStrategy::kSerial;
    a.rationale = l.one_proc_rationale;
    return a;
  }

  // Chain-like structure (bidiagonal shapes, heavily sequential bands):
  // the critical path is the whole loop; flags or barriers only slow
  // the one thread doing real work.
  if (s.avg_level_width < l.serial_width) {
    a.worth_parallelizing = false;
    a.strategy = ExecStrategy::kSerial;
    a.rationale = l.serial_rationale;
    return a;
  }

  // Wide, shallow level structure: every barrier is amortized over
  // enough per-processor row work, and dropping the per-row flag
  // traffic (one release store + acquire spin per dependence) wins
  // outright — the bulk-synchronous wavefront executor needs no flags.
  const double wide =
      std::max(4.0, l.wide_per_proc * static_cast<double>(procs));
  if (s.avg_level_width >= wide) {
    a.strategy = ExecStrategy::kLevelBarrier;
    a.rationale = l.level_rationale;
    return a;
  }

  // Moderate level widths: the flag-based doacross in doconsider order
  // pipelines across wavefronts where barriers would serialize on the
  // narrow levels (Table 1).
  a.strategy = ExecStrategy::kDoacross;
  a.rationale = l.doacross_rationale;
  return a;
}

}  // namespace

ScheduleAdvice advise_schedule(const TrisolveStructure& s, unsigned procs) {
  static constexpr StrategyLadder kSolveLadder{
      1.5,
      2.0,
      "empty system: nothing to schedule",
      "single processor: every parallel executor only adds "
      "synchronization; run the plain sequential solve",
      "average wavefront width < 1.5: the dependence chain is "
      "effectively serial; run sequentially",
      "wide shallow wavefronts (avg width >= 2 rows/processor): "
      "bulk-synchronous level execution, no per-row flags",
      "narrow wavefronts: flag-based doacross in doconsider order with "
      "dynamic single-iteration issue",
  };
  return advise_trisolve_shaped(s, procs, kSolveLadder);
}

ScheduleAdvice advise_factor_schedule(const TrisolveStructure& s,
                                      unsigned procs) {
  static constexpr StrategyLadder kFactorLadder{
      1.2,
      1.0,
      "empty system: nothing to factor",
      "single processor: run the plain sequential elimination",
      "average wavefront width < 1.2: the elimination chain is "
      "effectively serial; factor sequentially",
      "wide wavefronts (avg width >= 1 row/processor of elimination "
      "work): bulk-synchronous level factorization, no per-row flags",
      "narrow wavefronts: flag-based doacross elimination in doconsider "
      "order with dynamic single-iteration issue",
  };
  return advise_trisolve_shaped(s, procs, kFactorLadder);
}

TuningKey make_tuning_key(const TrisolveStructure& s, unsigned procs,
                          bool factor) noexcept {
  return TuningKey{s.n,           s.nnz,  s.levels, s.max_level_size,
                   s.max_distance, procs, factor};
}

std::size_t TuningCache::KeyHash::operator()(
    const TuningKey& k) const noexcept {
  auto mix = [](std::size_t h, std::uint64_t v) noexcept {
    return h ^ (static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  };
  std::size_t h = 0;
  h = mix(h, static_cast<std::uint64_t>(k.n));
  h = mix(h, static_cast<std::uint64_t>(k.nnz));
  h = mix(h, static_cast<std::uint64_t>(k.levels));
  h = mix(h, static_cast<std::uint64_t>(k.max_level_size));
  h = mix(h, static_cast<std::uint64_t>(k.max_distance));
  h = mix(h, k.procs);
  h = mix(h, k.factor ? 1u : 0u);
  return h;
}

template <class T>
bool TuningCache::find(const TuningKey& key,
                       std::optional<T> Verdicts::*verdict, T& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end() || !(it->second.*verdict)) {
    ++misses_;
    return false;
  }
  ++hits_;
  out = *(it->second.*verdict);
  return true;
}

template <class T>
void TuningCache::put(const TuningKey& key,
                      std::optional<T> Verdicts::*verdict, T winner) {
  const std::lock_guard<std::mutex> lock(mu_);
  map_[key].*verdict = winner;
  ++stores_;
}

bool TuningCache::lookup(const TuningKey& key, ExecStrategy& out) {
  return find(key, &Verdicts::strategy, out);
}

bool TuningCache::lookup(const TuningKey& key, WalkOrder& out) {
  return find(key, &Verdicts::order, out);
}

void TuningCache::store(const TuningKey& key, ExecStrategy winner) {
  put(key, &Verdicts::strategy, winner);
}

void TuningCache::store(const TuningKey& key, WalkOrder winner) {
  put(key, &Verdicts::order, winner);
}

void TuningCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = misses_ = stores_ = 0;
}

TuningCacheStats TuningCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return TuningCacheStats{hits_, misses_, stores_, map_.size()};
}

TuningCache& tuning_cache() noexcept {
  static TuningCache cache;
  return cache;
}

}  // namespace pdx::core
