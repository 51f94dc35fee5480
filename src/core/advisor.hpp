// advisor.hpp — dependence-aware executor configuration.
//
// The scheduling ablation (bench E6) shows the best executor schedule is
// a function of the loop's dependence structure, which the preprocessed
// doacross makes *measurable at run time*: the inspector machinery that
// already exists for correctness also supports choosing the policy. This
// advisor codifies the measured decision rules:
//
//   * no dependences            -> static-block (doall; locality wins);
//   * negligible parallelism    -> don't parallelize (serial chain);
//   * short-distance deps       -> static-block (deps stay intra-block;
//                                  only block boundaries chain; DepGraph
//                                  advice for the paper engines only);
//   * otherwise                 -> doconsider reordering + dynamic/1
//                                  (spread each wavefront; paper ref [4]).
//
// Beyond schedules, the advisor names a whole *executor strategy*
// (ExecStrategy): the triangular-solve stack instantiates one of three
// execution schemes per plan from the same measured structure — the seam
// sparse::TrisolvePlan selects through at build time (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/doconsider.hpp"
#include "runtime/schedule.hpp"

namespace pdx::core {

/// Executor strategy families the trisolve stack can instantiate. kAuto
/// is a *request* (measure, then decide); the advisor only ever returns
/// one of the three concrete strategies.
enum class ExecStrategy : std::uint8_t {
  kAuto,          ///< decide from inspector-measured structure
  kDoacross,      ///< busy-wait flags, any schedule (paper executor)
  kLevelBarrier,  ///< bulk-synchronous wavefronts, no per-row flags
  kSerial,        ///< sequential chain — parallelism would only add cost
};

inline const char* to_string(ExecStrategy s) noexcept {
  switch (s) {
    case ExecStrategy::kAuto: return "auto";
    case ExecStrategy::kDoacross: return "doacross";
    case ExecStrategy::kLevelBarrier: return "level-barrier";
    case ExecStrategy::kSerial: return "serial";
  }
  return "?";
}

/// The order a serial single-RHS walk visits rows in (DESIGN.md §9). Both
/// run every row's body after all of its producers, so both are bitwise
/// identical to the sequential loop; they differ in how much of the walk
/// one core's out-of-order window can overlap.
enum class WalkOrder : std::uint8_t {
  kSource,     ///< rows in source order: row i waits on row i-1's divide
  kWavefront,  ///< the inspector's level order: neighbours are independent
};

inline const char* to_string(WalkOrder o) noexcept {
  return o == WalkOrder::kWavefront ? "wavefront" : "source";
}

/// Inspector-measured dependence structure of a triangular solve — the
/// facts the strategy decision uses, all O(n + nnz) to collect (the level
/// analysis already exists for the doconsider reordering).
struct TrisolveStructure {
  index_t n = 0;
  index_t nnz = 0;              ///< stored entries including the diagonal
  index_t levels = 0;           ///< wavefront count == critical path
  index_t max_level_size = 0;   ///< widest wavefront
  index_t max_distance = 0;     ///< max |i - c| over off-diagonal deps
  double avg_level_width = 0.0; ///< n / levels — the available parallelism
  double nnz_per_row = 0.0;     ///< per-row work the synchronization buys
};

struct ScheduleAdvice {
  /// Recommended executor schedule and doconsider (level) order use —
  /// the DepGraph advice only; the TrisolveStructure advice names a
  /// strategy and leaves them at their defaults.
  rt::Schedule schedule;
  bool use_reordering = false;
  /// Whether parallel execution is expected to beat sequential at all.
  bool worth_parallelizing = true;
  /// Which executor scheme to instantiate (never kAuto on output).
  ExecStrategy strategy = ExecStrategy::kDoacross;
  /// Human-readable reason, for logs and reports.
  std::string rationale;
  /// Structural facts the decision used.
  index_t critical_path = 0;
  double avg_parallelism = 0.0;
  index_t max_distance = 0;
};

/// Analyze the true-dependence graph of a loop and recommend an executor
/// configuration for `procs` processors. procs == 0 means "the hardware
/// width", matching the rt::ThreadPool(width = 0) convention.
ScheduleAdvice advise_schedule(const DepGraph& g, unsigned procs);

/// Strategy advice from a triangular solve's measured structure (the
/// TrisolvePlan build path — sparse::measure_lower_solve produces the
/// input). Same procs convention: 0 -> hardware width.
ScheduleAdvice advise_schedule(const TrisolveStructure& s, unsigned procs);

/// Strategy advice for a *numeric factorization* over the same measured
/// structure (the sparse::FactorPlan build path). The dependence DAG is
/// the triangular solve's — row i waits on every earlier row its lower
/// pattern stores — but each row carries roughly nnz/row times the work
/// of a solve row (every lower entry triggers a row-length update), so
/// synchronization amortizes sooner: the serial cutoff drops and the
/// level-barrier width threshold relaxes. Same procs convention.
ScheduleAdvice advise_factor_schedule(const TrisolveStructure& s,
                                      unsigned procs);

// --- empirical calibration (DESIGN.md §13) --------------------------------
//
// The heuristic ladders above see DAG shape but never synchronization cost
// on the actual machine, and the committed strategy baselines prove they
// can mispick by four orders of magnitude (level-barrier at 2 threads on a
// stencil factor). The paper's amortization premise — the same loop runs
// many times — makes measuring free: a kAuto plan races every strategy on
// its first real solves (all executors are bitwise identical, so switching
// mid-stream is invisible) and locks in the measured winner. core::Race
// (core/race.hpp) runs and records the race; the TuningCache persists
// winners process-wide so later plans over the same (pattern fingerprint,
// threads) skip the race.

/// Structure fingerprint a measured winner is keyed by: every field the
/// strategy decision depends on, and nothing value-dependent — two
/// factorizations with the same pattern and thread count hit the same
/// entry. avg_level_width and nnz_per_row are quotients of the stored
/// fields, so the integer fields alone pin the fingerprint exactly.
struct TuningKey {
  index_t n = 0;
  index_t nnz = 0;
  index_t levels = 0;
  index_t max_level_size = 0;
  index_t max_distance = 0;
  unsigned procs = 0;
  /// Solve and factorization races answer different questions (a
  /// factorization row carries ~nnz/row of a solve row's work), so their
  /// winners never share an entry.
  bool factor = false;

  friend bool operator==(const TuningKey&, const TuningKey&) = default;
};

TuningKey make_tuning_key(const TrisolveStructure& s, unsigned procs,
                          bool factor) noexcept;

struct TuningCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::size_t entries = 0;
};

/// Process-wide memo of measured race winners, shared by every plan build
/// on every thread (a mutex guards the map — lookups happen once per plan
/// build, never on a solve path). Only empirically measured winners are
/// stored; heuristic-only picks never enter the cache. A key holds a
/// strategy verdict and a walk-order verdict independently.
class TuningCache {
 public:
  /// True and sets `out` when a measured winner exists for `key`.
  bool lookup(const TuningKey& key, ExecStrategy& out);
  bool lookup(const TuningKey& key, WalkOrder& out);
  /// Record a race winner (later races over the same key overwrite —
  /// fresher measurements win).
  void store(const TuningKey& key, ExecStrategy winner);
  void store(const TuningKey& key, WalkOrder winner);
  /// Drop every entry and zero the counters (tests; otherwise entries
  /// live for the process lifetime — patterns are few, entries are tiny).
  void clear();
  TuningCacheStats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const TuningKey& k) const noexcept;
  };

  struct Verdicts {
    std::optional<ExecStrategy> strategy;
    std::optional<WalkOrder> order;
  };
  template <class T>
  bool find(const TuningKey& key, std::optional<T> Verdicts::*verdict,
            T& out);
  template <class T>
  void put(const TuningKey& key, std::optional<T> Verdicts::*verdict,
           T winner);

  mutable std::mutex mu_;
  std::unordered_map<TuningKey, Verdicts, KeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
};

/// The process-wide instance every kAuto plan consults.
TuningCache& tuning_cache() noexcept;

}  // namespace pdx::core
