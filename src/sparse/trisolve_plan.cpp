#include "sparse/trisolve_plan.hpp"

#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "runtime/schedule.hpp"
#include "sparse/levels.hpp"

namespace pdx::sparse {

namespace {

void check_factor(const Csr& m, const char* what) {
  if (m.rows != m.cols) {
    throw std::invalid_argument(std::string("TrisolvePlan: ") + what +
                                " factor is not square");
  }
}

// --- row sources -----------------------------------------------------
//
// The row bodies read rows only through src.at(position); these
// adapters supply the two layouts. The CSR views reproduce the
// historical access path exactly (position -> row via the order array,
// row -> entries via row_ptr); the packed sources walk the plan-owned
// execution-ordered record streams of DESIGN.md §10.

/// kCsrView, lower factor: diagonal last in the sorted row. A null
/// order (the serial walk's source order) means position == row.
struct CsrLowerSrc {
  const Csr* m;
  const index_t* order;
  PackedRow at(index_t k) const noexcept {
    const index_t i = order ? order[k] : k;
    const index_t b = m->row_begin(i);
    const index_t e = m->row_end(i) - 1;  // diagonal last
    return {i, e - b, m->val[static_cast<std::size_t>(e)],
            m->idx.data() + b, m->val.data() + b};
  }
};

/// kCsrView, upper factor: diagonal first. A null order (the serial
/// walk's source order) means the backward solve's natural order,
/// position k == row n-1-k.
struct CsrUpperSrc {
  const Csr* m;
  const index_t* order;
  index_t n;
  PackedRow at(index_t k) const noexcept {
    const index_t i = order ? order[k] : n - 1 - k;
    const index_t b = m->row_begin(i);  // diagonal first
    return {i, m->row_end(i) - b - 1, m->val[static_cast<std::size_t>(b)],
            m->idx.data() + b + 1, m->val.data() + b + 1};
  }
};

/// kPacked, statically owned slab: positions arrive consecutively, so
/// the position argument is implicit in the cursor — the pure linear
/// walk (serial, level-barrier).
struct PackedWalkSrc {
  PackedFactorStream::Cursor c;
  PackedRow at(index_t) noexcept { return c.next(); }
};

/// kPacked, dynamically claimed positions (the doacross schedule): one
/// predictable pointer load into the position index, then the record is
/// a single contiguous read. Consecutive positions of a claimed chunk
/// are adjacent records, so the walk stays linear per chunk.
struct PackedSeekSrc {
  const PackedFactorStream* s;
  PackedRow at(index_t k) const noexcept { return s->at(k); }
};

// --- multi-RHS lane arithmetic ----------------------------------------
//
// The k columns of the interleaved strip are the SIMD lanes: one vector
// op retires k right-hand sides per nonzero, and because column c's
// element never mixes with column c''s, the vector forms are bitwise
// identical to the scalar per-column arithmetic (DESIGN.md §14). Every
// strip width runs one row_solve per row — a serial CSR-view strip one
// sweep per factor instead; kLaneMin only gates what needs a full vector
// to pay: the lookahead prefetch.

/// Every cache line of one k-wide strip row (k=16 spans two), gated on
/// the vector table: the scalar table is the pre-kernel-layer reference
/// and bench/kernel_micro times the vector table against exactly that —
/// SIMD and the prefetch schedule win or lose together (DESIGN.md §14).
inline void prefetch_strip_row(const kernels::LaneOps* lanes,
                               const double* tp, index_t col,
                               index_t k) noexcept {
  if (lanes->isa == kernels::KernelIsa::kScalar) return;
  const double* p = tp + col * k;
  for (index_t o = 0; o < k; o += 8) kernels::prefetch_read(p + o);
}

/// The NEXT record's gathered strip rows, issued while the lane kernels
/// chew the current record — one full record of distance, enough to
/// cover a last-level-cache hit on the spilled factors the packed
/// layout targets. Only the level walk of a parallel strip uses this:
/// its lookahead row's dependences are all final, so the prefetch never
/// tugs a line another thread is writing.
inline void prefetch_row_deps(const PackedRow& r, const double* tp,
                              index_t k) noexcept {
  for (index_t j = 0; j < r.cnt; ++j) {
    const double* p = tp + r.cols[j] * k;
    for (index_t o = 0; o < k; o += 8) kernels::prefetch_read(p + o);
  }
}

/// The parallel strip's lookahead pipeline (parse the next record,
/// prefetch its strip rows, then compute the current one) only pays when
/// the lane kernels are actually in play: wide batches on a vector
/// table. Narrow batches and the scalar table keep the plain walk — the
/// scalar reference IS the pre-kernel-layer executor, prefetch-free.
inline bool want_lookahead(const kernels::LaneOps* lanes,
                           index_t k) noexcept {
  return lanes->isa != kernels::KernelIsa::kScalar && k >= kernels::kLaneMin;
}

/// Keeps a short in-order reduction a scalar loop. Vectorizing it is
/// legal (the term order is kept), but rows are a few terms long and the
/// vector form puts a lane shuffle on the row-to-row dependence chain of
/// a serial solve — measured ~6% slower single-RHS serial solves at -O3.
/// The empty asm makes the index opaque to the vectorizer and emits no
/// instruction.
inline void scalar_loop(index_t& j) noexcept {
#if defined(__GNUC__)
  asm("" : "+r"(j));
#else
  (void)j;
#endif
}

// --- row bodies -------------------------------------------------------
//
// What one row computes, independent of how the core schedules it: the
// core calls body(pos, wait) for execution position pos, and the body
// calls wait(dep) before reading a dependence's result (a no-op outside
// the flag walk). Lower and upper solves share the bodies; they differ
// only in the DAG and the row Source. Arithmetic is identical to the
// sequential Fig. 7 solves in every instantiation.

/// The single-RHS row: y[i] = (rhs[i] - sum_j a_ij y[j]) / a_ii, terms
/// in stored order.
template <class Src>
struct VecRow {
  Src src;
  const double* rhs;
  double* y;

  template <class Wait>
  void operator()(index_t pos, Wait& wait) {
    const PackedRow r = src.at(pos);
    double acc = rhs[r.row];
    for (index_t j = 0; j < r.cnt; ++j) {
      scalar_loop(j);
      const index_t c = r.cols[j];
      wait(c);
      acc -= r.vals[j] * y[c];
    }
    y[r.row] = acc / r.diag;
  }
};

/// The k-wide strip row: lane c runs the exact arithmetic of VecRow on
/// its own right-hand side (term order, division) — bitwise equal per
/// lane. One ready flag per row covers all k lanes: a dependence is
/// waited on once, not k times, and the record is read once for the
/// whole strip. Row i's k values live in place in the row-major strip,
/// where consumers read them contiguously. The forward solve starts the
/// row from the input strip `in` (nullptr when solving in place, and on
/// the backward solve, which updates the strip in place).
template <class Src>
struct StripRow {
  Src src;
  const double* in;
  double* tp;
  index_t k;
  const kernels::LaneOps* lanes;

  template <class Wait>
  void operator()(index_t pos, Wait& wait) {
    const PackedRow r = src.at(pos);
    double* ti = tp + r.row * k;
    if constexpr (Wait::kWaits) {
      // Waits retire first, pulling each ready dependence's strip row
      // toward L1 as it lands: the row kernel reads them all.
      for (index_t j = 0; j < r.cnt; ++j) {
        wait(r.cols[j]);
        prefetch_strip_row(lanes, tp, r.cols[j], k);
      }
    }
    // The whole row in one lane-kernel call: load, dependence list,
    // divide and store, the accumulators in registers throughout.
    lanes->row_solve(ti, in ? in + r.row * k : ti, r.vals, r.cols, r.cnt,
                     r.diag, tp, k);
  }

  /// The core's lookahead hook, present only over an AheadSrc.
  void look(index_t pos, index_t end) noexcept
    requires requires(Src s) { s.look(pos, end); }
  {
    src.look(pos, end);
  }
};

/// A whole serial strip sweep of one CSR-view factor: the serial walk
/// hands run(first, last) its runs of positions, and each run is one
/// LaneOps::sweep call — source order, row_solve's arithmetic per row.
struct StripSweep {
  kernels::CsrRef f;
  bool upper;
  const double* in;
  double* tp;
  index_t k;
  const kernels::LaneOps* lanes;

  void run(index_t first, index_t last) const {
    lanes->sweep(f, upper, in, tp, first, last, k);
  }
};

/// Level-walk lookahead over a row Source: look(pos, end), called by the
/// core through StripRow, parses record pos (or takes it from the
/// previous call) and, when the thread's run continues, parses record
/// pos+1 and prefetches its gathered strip rows — then the body's at(pos)
/// returns record pos.
/// Each record is parsed exactly once, in walk order, which is what the
/// cursor-driven packed sources require.
template <class Src>
struct AheadSrc {
  Src src;
  const double* tp;
  index_t k;
  PackedRow cur{}, nxt{};
  bool ahead = false;

  void look(index_t pos, index_t end) noexcept {
    cur = ahead ? nxt : src.at(pos);
    ahead = pos + 1 < end;
    if (ahead) {
      nxt = src.at(pos + 1);
      prefetch_row_deps(nxt, tp, k);
    }
  }
  PackedRow at(index_t) const noexcept { return cur; }
};

/// Single-RHS row bodies: the only ones the wavefront walk runs.
template <class R>
constexpr bool kVecRow = false;
template <class Src>
constexpr bool kVecRow<VecRow<Src>> = true;

core::DagPlanConfig core_config(const PlanOptions& o) noexcept {
  return {.nthreads = o.nthreads,
          .strategy = o.strategy,
          .calibration_epochs = o.calibration_epochs,
          .use_tuning_cache = o.use_tuning_cache,
          .stall_budget = o.stall_budget,
          .factor = false,
          // A pinned packed layout streams the serial slabs in source
          // order, so only CSR views can walk the level order.
          .order_race = o.layout != PlanLayout::kPacked,
          .name = "TrisolvePlan",
          .epoch = "solve"};
}

}  // namespace

template <bool kLook, class MakeRow>
void TrisolvePlan::walk(bool upper, unsigned tid, unsigned nthreads,
                        MakeRow&& row, const double* tp, index_t k) {
  // The level walk visits each thread's positions consecutively; with
  // kLook its rows read through an AheadSrc, whose hook the core calls.
  auto in_order = [&](auto src) {
    if constexpr (kLook) {
      return row(AheadSrc<decltype(src)>{src, tp, k});
    } else {
      return row(src);
    }
  };
  // Packed slabs are read linearly by the walk-order walks and through
  // the position index by the flag walk (the schedule may claim any
  // position). CSR views read rows through the DAG's order — except the
  // serial walk, which runs in source order unless single-RHS rows take
  // the wavefront walk the order race picked.
  auto go = [&](core::Dag& d, const PackedFactorStream& packed, auto csr) {
    const ExecutionStrategy s = core_.strategy();
    if (s == ExecutionStrategy::kSerial) {
      // No lookahead: one thread's strip stays cache resident, so the
      // parse-and-prefetch pipeline would only add work per row.
      if (packed.packed()) {
        core_.walk_serial(d, tid, row(PackedWalkSrc{packed.cursor(0)}));
        return;
      }
      // Single-RHS rows take the wavefront walk once the order race
      // picked it; strips keep source order (DESIGN.md §9).
      if constexpr (kVecRow<decltype(row(csr))>) {
        if (core_.wavefront()) csr.order = d.order_data();
      }
      core_.walk_serial(d, tid, row(csr), csr.order);
      return;
    }
    csr.order = d.order_data();
    if (s == ExecutionStrategy::kDoacross) {
      if (packed.packed()) {
        core_.walk_flags(d, tid, nthreads, row(PackedSeekSrc{&packed}));
      } else {
        core_.walk_flags(d, tid, nthreads, row(csr));
      }
    } else if (packed.packed()) {
      core_.walk_levels(d, tid, nthreads,
                        in_order(PackedWalkSrc{packed.cursor(tid)}));
    } else {
      core_.walk_levels(d, tid, nthreads, in_order(csr));
    }
  };
  if (upper) {
    go(core_.dag(kUpper), packed_u_, CsrUpperSrc{u_, nullptr, n_});
  } else {
    go(core_.dag(kLower), packed_l_, CsrLowerSrc{l_, nullptr});
  }
}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l, const Csr& u,
                           const PlanOptions& opts)
    : l_(&l),
      u_(&u),
      opts_(opts),
      n_(l.rows),
      core_(pool, l.rows, 2, core_config(opts), telemetry_),
      lanes_(opts.kernel == kernels::KernelChoice::kScalar
                 ? &kernels::scalar_ops()
                 : &kernels::dispatched_ops()) {
  check_factor(l, "lower");
  check_factor(u, "upper");
  if (u.rows != l.rows) {
    throw std::invalid_argument("TrisolvePlan: L/U dimension mismatch");
  }
  core_.dag(kUpper).reverse = true;  // the backward solve
  tmp_.resize(static_cast<std::size_t>(n_));
  telemetry_.isa = kernels::dispatched_isa();
  telemetry_.kernel = lanes_->isa == kernels::KernelIsa::kScalar
                          ? kernels::KernelChoice::kScalar
                          : kernels::KernelChoice::kVector;
  core::Dag& dl = core_.dag(kLower);
  if (opts_.strategy == ExecutionStrategy::kAuto) {
    // The inspector pass of the strategy decision: the doconsider
    // analysis (levels, widths) plus an O(nnz) distance scan. The
    // reordering is kept — if the plan lands on doacross or
    // level-barrier it is the execution order. One decision covers both
    // factors.
    dl.order = std::make_unique<core::Reordering>(lower_solve_reordering(l));
    const core::TrisolveStructure s = measure_lower_solve(l, *dl.order);
    core_.decide(s, core::advise_schedule(s, core_.nthreads()));
  } else if (core_.can_race_order()) {
    // A pinned serial plan races its walk order too; the measured
    // structure keys the verdict in the TuningCache.
    dl.order = std::make_unique<core::Reordering>(lower_solve_reordering(l));
    core_.arm_order_race(measure_lower_solve(l, *dl.order));
  }
  if (core_.needs_order()) {
    if (!dl.order) {
      dl.order = std::make_unique<core::Reordering>(lower_solve_reordering(l));
    }
    core_.dag(kUpper).order =
        std::make_unique<core::Reordering>(upper_solve_reordering(u));
  } else {
    dl.order.reset();  // kSerial runs in source order
  }
  build_packed();

  // Regions are bound once, here: the core reads the strategy when a
  // region runs, and per-call inputs travel through the vec_/strip_
  // members. This is what makes every solve allocation free: a fresh
  // capturing lambda would not fit std::function's small buffer and
  // would heap-allocate on every call.
  const auto vec = [](const double* rhs, double* y) {
    return [rhs, y](auto src) {
      return VecRow<decltype(src)>{src, rhs, y};
    };
  };
  fused_region_ = core_.contained([this, vec](unsigned tid, unsigned nth) {
    // The forward solve flows into the backward solve without returning
    // to the pool; the handoff publishes every tmp_ element before any
    // thread consumes it.
    walk<false>(false, tid, nth, vec(vec_rhs_, tmp_.data()));
    core_.handoff();
    walk<false>(true, tid, nth, vec(tmp_.data(), vec_z_));
  });
  strip_region_ = core_.contained([this](unsigned tid, unsigned nth) {
    // One pass per factor with all k lanes in the strip.
    if (core_.strategy() == ExecutionStrategy::kSerial) {
      serial_strip(strip_in_, strip_, strip_k_, tid);
      return;
    }
    const auto strip = [this](bool upper) {
      return [this, upper](auto src) {
        return StripRow<decltype(src)>{src, upper ? nullptr : strip_in_,
                                       strip_, strip_k_, lanes_};
      };
    };
    const auto both = [&](auto look) {
      walk<decltype(look)::value>(false, tid, nth, strip(false), strip_,
                                  strip_k_);
      core_.handoff();
      walk<decltype(look)::value>(true, tid, nth, strip(true), strip_,
                                  strip_k_);
    };
    if (want_lookahead(lanes_, strip_k_)) {
      both(std::true_type{});
    } else {
      both(std::false_type{});
    }
  });
}

void TrisolvePlan::build_packed() {
  // Packed slab sequences are strategy-specific, so a calibrating plan
  // defers packing to lock-in and explores through CSR-view sources.
  if (core_.calibrating() || n_ == 0) return;
  PlanLayout want = opts_.layout;
  if (want == PlanLayout::kAuto) {
    // A serial plan walks each factor once per solve with no cross-thread
    // sharing to localize; the packed duplication measurably loses there
    // (layout_speedup 0.66–0.96 in BENCH_strategy), so only a caller
    // pinning kPacked pays for it.
    want = telemetry_.strategy == ExecutionStrategy::kSerial
               ? PlanLayout::kCsrView
               : PlanLayout::kPacked;
  }
  if (want != PlanLayout::kPacked) return;
  const unsigned nth = core_.nthreads();
  const unsigned width = nth == 0 ? 1 : nth;
  const unsigned slabs =
      telemetry_.strategy == ExecutionStrategy::kSerial ? 1 : width;
  const core::Dag& dl = core_.dag(kLower);
  const core::Dag& du = core_.dag(kUpper);

  // Per-slab row sequences: the exact order each thread's kernel walks.
  std::vector<std::vector<index_t>> lseq, useq;
  bool position_index = false;
  switch (telemetry_.strategy) {
    case ExecutionStrategy::kSerial: {
      lseq.resize(1);
      lseq[0].resize(static_cast<std::size_t>(n_));
      std::iota(lseq[0].begin(), lseq[0].end(), index_t{0});
      useq.assign(1, std::vector<index_t>(lseq[0].rbegin(), lseq[0].rend()));
      break;
    }
    case ExecutionStrategy::kLevelBarrier: {
      lseq = level_schedule_sequences(*dl.order, slabs);
      useq = level_schedule_sequences(*du.order, slabs);
      break;
    }
    case ExecutionStrategy::kDoacross: {
      // The schedule may claim any position at run time, so the stream
      // carries a position index; the slab split mirrors the static-
      // block assignment, which is also where dynamic chunks of a
      // steady-state solve tend to land.
      position_index = true;
      lseq.resize(slabs);
      useq.resize(slabs);
      for (unsigned t = 0; t < slabs; ++t) {
        const rt::IterRange r = rt::static_block_range(n_, t, slabs);
        lseq[t].assign(dl.order_data() + r.begin, dl.order_data() + r.end);
        useq[t].assign(du.order_data() + r.begin, du.order_data() + r.end);
      }
      break;
    }
    case ExecutionStrategy::kAuto:
      return;  // unreachable: the core never leaves kAuto
  }

  packed_l_.prepare(*l_, /*diag_first=*/false, std::move(lseq),
                    position_index);
  packed_u_.prepare(*u_, /*diag_first=*/true, std::move(useq),
                    position_index);
  // First-touch packing: every slab is written — page-placed — by the
  // thread that will execute it, in ONE pool dispatch covering both
  // factors. Serial plans pack inline: the calling thread IS the
  // executor, and waking the pool would first-touch nothing useful.
  if (slabs <= 1) {
    packed_l_.pack(0);
    packed_u_.pack(0);
  } else {
    core_.pool().parallel_region(nth, [this](unsigned tid, unsigned) {
      packed_l_.pack(tid);
      packed_u_.pack(tid);
    });
  }
  packed_l_.finish_build();
  packed_u_.finish_build();
  telemetry_.layout = PlanLayout::kPacked;
  telemetry_.packed_bytes = packed_l_.bytes() + packed_u_.bytes();
  // The value-refresh region (refresh_values) is bound once, like the
  // solve regions: each thread re-streams the values of its own slabs,
  // on the pages it first-touched at build.
  if (slabs > 1) {
    refresh_region_ = [this](unsigned tid, unsigned) {
      packed_l_.repack_values(*l_, tid);
      packed_u_.repack_values(*u_, tid);
    };
  }
}

void TrisolvePlan::refresh_values(const IluFactors& f) {
  core_.throw_if_poisoned();
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  // Same-object refreshes (the factorization re-filled the values of the
  // very factors the plan reads) skip the pattern comparison; a foreign
  // pair must prove pattern equality before the plan rebinds to it.
  auto same_pattern = [](const Csr& x, const Csr& y) noexcept {
    return x.rows == y.rows && x.cols == y.cols && x.ptr == y.ptr &&
           x.idx == y.idx;
  };
  if ((&f.l != l_ && !same_pattern(f.l, *l_)) ||
      (&f.u != u_ && !same_pattern(f.u, *u_))) {
    throw std::invalid_argument(
        "TrisolvePlan::refresh_values: pattern mismatch — a value-only "
        "refresh requires the plan's sparsity pattern; rebuild the plan");
  }
  l_ = &f.l;  // kCsrView's whole refresh: the kernels read through these
  u_ = &f.u;
  if (telemetry_.layout == PlanLayout::kPacked) {
    if (packed_l_.slab_count() <= 1) {
      // Serial plans repack inline — the calling thread is the executor.
      packed_l_.repack_values(*l_, 0);
      packed_u_.repack_values(*u_, 0);
    } else {
      core_.pool().parallel_region(core_.nthreads(), refresh_region_);
    }
  }
  const clock::time_point t1 = clock::now();
  telemetry_.refresh_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  ++refreshes_;
}

core::DoacrossStats TrisolvePlan::run(const rt::ThreadPool::RegionFn& region,
                                      bool order, index_t columns) {
  const core::DoacrossStats stats = core_.dispatch(region);
  solves_.fetch_add(1, std::memory_order_relaxed);
  // Race bookkeeping only after a SUCCESSFUL run: a fault threw out of
  // dispatch() after poisoning the plan, without feeding any race or
  // the cache. When the strategy race locks in, resolve the deferred
  // layout: pack the winner's execution order.
  if (core_.end_epoch(stats.execute_seconds, order, columns)) {
    build_packed();
  }
  return stats;
}

core::DoacrossStats TrisolvePlan::run_fused(const double* rhs, double* z) {
  if (n_ == 0) return {};
  core_.reset(core_.dag(kLower));
  core_.reset(core_.dag(kUpper));
  vec_rhs_ = rhs;
  vec_z_ = z;
  return run(fused_region_, true);
}

core::DoacrossStats TrisolvePlan::solve(std::span<const double> rhs,
                                        std::span<double> z) {
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(z.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve: size mismatch");
  }
  return run_fused(rhs.data(), z.data());
}

void TrisolvePlan::reserve_batch(index_t max_k) {
  if (max_k < 1) {
    throw std::invalid_argument("TrisolvePlan::reserve_batch: max_k < 1");
  }
  const std::size_t strip =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(max_k);
  if (batch_tmp_.size() < strip) batch_tmp_.resize(strip);
}

core::DoacrossStats TrisolvePlan::run_column(const double* b, double* x) {
  // A one-lane strip would be the fused solve over an n-by-1 copy of
  // tmp_: the same bits, plus a slower walk.
  const core::DoacrossStats stats = run_fused(b, x);
  if (n_ > 0) batch_columns_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

core::DoacrossStats TrisolvePlan::run_strip(index_t k) {
  if (n_ == 0) return {};
  strip_k_ = k;
  core_.reset(core_.dag(kLower));
  core_.reset(core_.dag(kUpper));
#ifndef NDEBUG
  // A calibration epoch may advance the race inside run() — switching
  // the strategy the budget is defined by, and a lock-in can spend an
  // extra dispatch packing the winner — so the budget assert only covers
  // locked-in plans.
  const bool was_calibrating = core_.calibrating();
  const rt::DispatchProbe probe(core_.pool());
#endif
  const core::DoacrossStats stats = run(strip_region_, false, k);
#ifndef NDEBUG
  assert((was_calibrating ||
          probe.delta() ==
              (telemetry_.strategy == ExecutionStrategy::kSerial ? 0u
                                                                 : 1u)) &&
         "a strip solve must cost exactly one pool dispatch (zero serial)");
#endif
  batch_columns_.fetch_add(static_cast<std::uint64_t>(k),
                           std::memory_order_relaxed);
  return stats;
}

void TrisolvePlan::serial_strip(const double* in, double* x, index_t k,
                                unsigned tid) {
  if (k == 1) {
    // One lane is a vector: solve()'s rows, solved in place in x rather
    // than through tmp_ — a backward row reads its own forward result
    // before it overwrites it, so the bits are the fused solve's.
    const auto vec = [x](const double* rhs) {
      return [rhs, x](auto src) {
        return VecRow<decltype(src)>{src, rhs, x};
      };
    };
    walk<false>(false, tid, 1, vec(in ? in : x));
    walk<false>(true, tid, 1, vec(x));
    return;
  }
  if (!packed_l_.packed()) {
    // The CSR views: one lane-kernel call per factor sweep.
    const auto sweep = [&](unsigned dag, const Csr& m, const double* src) {
      const kernels::CsrRef f{m.ptr.data(), m.idx.data(), m.val.data(),
                              m.rows};
      core_.walk_serial(core_.dag(dag), tid,
                        StripSweep{f, dag == kUpper, src, x, k, lanes_});
    };
    sweep(kLower, *l_, in);
    sweep(kUpper, *u_, nullptr);
    return;
  }
  // The caller-pinned packed slabs: one lane-kernel call per row.
  const auto strip = [this, in, x, k](bool upper) {
    return [this, in, x, k, upper](auto src) {
      return StripRow<decltype(src)>{src, upper ? nullptr : in, x, k,
                                     lanes_};
    };
  };
  walk<false>(false, tid, 1, strip(false));
  walk<false>(true, tid, 1, strip(true));
}

namespace {

void check_strip_args(const char* what, index_t n, std::size_t b_size,
                      std::size_t x_size, index_t k) {
  if (k < 1) {
    throw std::invalid_argument(std::string("TrisolvePlan::") + what +
                                ": k must be >= 1");
  }
  if (static_cast<index_t>(b_size) < n * k ||
      static_cast<index_t>(x_size) < n * k) {
    throw std::invalid_argument(
        std::string("TrisolvePlan::") + what + ": size mismatch — b has " +
        std::to_string(b_size) + " and x has " + std::to_string(x_size) +
        " entries but n*k = " + std::to_string(n) + "*" + std::to_string(k) +
        " = " + std::to_string(n * k) + " are required");
  }
}

}  // namespace

core::DoacrossStats TrisolvePlan::solve_strip(std::span<const double> b,
                                              std::span<double> x,
                                              index_t k) {
  check_strip_args("solve_strip", n_, b.size(), x.size(), k);
  const double* in = b.data() == x.data() ? nullptr : b.data();
  // The reentrant entry (see the header): a settled serial plan runs the
  // serial strip walk straight from the arguments. Poison is monotonic,
  // so a serial plan poisoned under concurrent callers takes this entry
  // too and throws in run_inline without touching shared state. A lone
  // column outside any region while the order race explores is the
  // plan's one caller: it takes the dispatch path, which feeds the race.
  const bool order_epoch = k == 1 && core_.order_racing() &&
                           !rt::ThreadPool::in_region();
  if (core_.strategy() == ExecutionStrategy::kSerial && !order_epoch &&
      (core_.settled() || core_.poisoned())) {
    if (n_ == 0) return {};
    const unsigned tid = rt::ThreadPool::member();
    const core::DoacrossStats stats =
        core_.run_inline([&] { serial_strip(in, x.data(), k, tid); });
    solves_.fetch_add(1, std::memory_order_relaxed);
    batch_columns_.fetch_add(static_cast<std::uint64_t>(k),
                             std::memory_order_relaxed);
    return stats;
  }
  if (k == 1) return run_column(b.data(), x.data());
  strip_in_ = in;
  strip_ = x.data();
  return run_strip(k);
}

core::DoacrossStats TrisolvePlan::solve_batch(std::span<const double> b,
                                              std::span<double> x,
                                              index_t k) {
  check_strip_args("solve_batch", n_, b.size(), x.size(), k);
  if (k == 1) return run_column(b.data(), x.data());
  reserve_batch(k);
  // Column-major n-by-k is row-major k-by-n: the strip is its transpose.
  lanes_->transpose(b.data(), k, n_, batch_tmp_.data());
  strip_in_ = nullptr;
  strip_ = batch_tmp_.data();
  const core::DoacrossStats stats = run_strip(k);
  lanes_->transpose(batch_tmp_.data(), n_, k, x.data());
  return stats;
}

}  // namespace pdx::sparse
