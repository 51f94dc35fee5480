// kernels.hpp — runtime-dispatched vector kernels for the packed-stream
// executors (DESIGN.md §14).
//
// The inspector fixed the schedule (TrisolvePlan) and the layout
// (PackedFactorStream); what remains between the executor and hardware
// speed is the innermost arithmetic. This module supplies it as a small
// table of function pointers — LaneOps — selected ONCE per process from
// CPUID (overridable via the PDX_KERNEL env var for testing), so the
// plans never branch on ISA inside a row loop and never recompile per
// target: the AVX2 bodies carry per-function target attributes and the
// translation unit builds with the portable baseline flags.
//
// Every kernel is in one class under the bitwise contract (DESIGN.md §4):
// element-independent. Each output element is produced by exactly the
// sequential operation sequence (one mul rounding + one sub rounding per
// term, then one correctly-rounded division), and SIMD only changes how
// many independent elements retire per instruction, so the vector forms
// are bitwise identical to the scalar forms. row_solve backs the
// multi-RHS strip rows (the k columns of the wavefront-interleaved strip
// are the SIMD lanes) and gather_axpy FactorPlan's scatter updates. The
// strip-lane kernels of the lockstep Krylov solve (spmv_row, lane_dot,
// lane_axpy, lane_xpby) reduce each lane over rows in order, so only the
// lanes — never the terms — are computed in parallel. No kernel
// reassociates, and none uses FMA: the build compiles with
// -ffp-contract=off, and a fused multiply-add rounds once where the
// reference rounds twice.
//
// Every function tolerates unaligned pointers (the CSR-view sources are
// not 32B-aligned; the packed streams are, by the record padding).
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/types.hpp"

namespace pdx::sparse::kernels {

/// Instruction set a LaneOps table was compiled for.
enum class KernelIsa : std::uint8_t { kScalar, kAvx2, kNeon };

inline const char* to_string(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kNeon: return "neon";
  }
  return "?";
}

/// Lane-kernel table of a solve plan (PlanOptions::kernel). The table is
/// a per-process fact — the CPU fixes it — so it is chosen once, not
/// raced (DESIGN.md §14).
///   kVector — (default) the dispatched table, dispatched_ops(): the
///             vector table when the machine has one (and PDX_KERNEL
///             does not pin scalar), the scalar table otherwise.
///   kScalar — pin the scalar table: the reference everything is
///             bitwise-tested against, and what bench/kernel_micro
///             times the vector table against.
enum class KernelChoice : std::uint8_t { kVector, kScalar };

inline const char* to_string(KernelChoice c) noexcept {
  switch (c) {
    case KernelChoice::kScalar: return "scalar";
    case KernelChoice::kVector: return "vector";
  }
  return "?";
}

/// Resolve an override string (the PDX_KERNEL env var) against what the
/// hardware supports: "scalar" pins the fallback, "avx2"/"neon" request
/// an ISA (clamped to scalar when absent), "auto"/empty/nullptr/unknown
/// defer to CPUID. Pure function — unit-testable without setenv.
KernelIsa resolve_isa(const char* override_value) noexcept;

/// The process-wide dispatched ISA: CPUID probed once, PDX_KERNEL
/// consulted once, then cached (plans built after a setenv in the same
/// process intentionally keep the first answer).
KernelIsa dispatched_isa() noexcept;

/// The innermost arithmetic of the packed executors as a dispatch table.
/// `k`/`cnt` are element counts; all pointers may be unaligned.
struct LaneOps {
  KernelIsa isa = KernelIsa::kScalar;
  /// BITWISE: one whole strip row of a triangular solve — for c in
  /// [0, k): start from src[c], subtract vals[j] * xs[cols[j]*k + c] for
  /// j = 0 .. cnt-1 in stored order (one mul rounding, one sub rounding
  /// each), then divide by diag once. Per lane exactly the scalar row of
  /// the sequential solve. `src` is the row's input (the forward solve's
  /// input strip row) or `t` itself when solving in place; the
  /// dependence rows xs[cols[j]*k ..] never overlap `t`. The vector forms
  /// keep the k accumulators in registers from the load of `src` to the
  /// one store of `t`. One indirect call per row — the strip executors'
  /// hot path.
  void (*row_solve)(double* t, const double* src, const double* vals,
                    const index_t* cols, index_t cnt, double diag,
                    const double* xs, index_t k);
  /// BITWISE: w[tgt[t]] -= a * w[src[t]] for t in [0, cnt). Requires the
  /// tgt and src position sets to be disjoint and the tgt positions
  /// distinct (FactorPlan's scatter steps satisfy both: targets lie in
  /// the row being factored, sources in the already-retired pivot row).
  void (*gather_axpy)(double* w, const index_t* tgt, const index_t* src,
                      index_t cnt, double a);

  // --- strip lanes (DESIGN.md §8) ----------------------------------------
  // Row-major n-by-k strips: lane c of row i at i*k + c. Each lane runs
  // exactly the single-vector loop of sparse::spmv / solve/vec.hpp on its
  // own values (mul, then add; rows in ascending order), so every lane is
  // bitwise equal to that loop whatever the table.

  /// BITWISE: one CSR row against the strip — y[c] = 0.0 + sum_j
  /// vals[j] * xs[cols[j]*k + c], j in stored order. Per lane exactly
  /// sparse::spmv's row.
  void (*spmv_row)(double* y, const double* vals, const index_t* cols,
                   index_t cnt, const double* xs, index_t k);
  /// BITWISE: out[c] = 0.0 + sum_i a[i*k + c] * b[i*k + c] over rows
  /// i = 0 .. n-1 in order — per lane exactly solve::dot.
  void (*lane_dot)(double* out, const double* a, const double* b, index_t n,
                   index_t k);
  /// BITWISE: y[i*k + c] += alpha[c] * x[i*k + c] — per lane solve::axpy.
  void (*lane_axpy)(double* y, const double* alpha, const double* x,
                    index_t n, index_t k);
  /// BITWISE: y[i*k + c] = x[i*k + c] + beta[c] * y[i*k + c] — per lane
  /// solve::xpby.
  void (*lane_xpby)(double* y, const double* beta, const double* x,
                    index_t n, index_t k);
  /// dst = srcᵀ for a row-major rows-by-cols src (dst is cols-by-rows):
  /// a column-major n-by-k block to and from its n-by-k strip. Moves
  /// values only.
  void (*transpose)(const double* src, index_t rows, index_t cols,
                    double* dst);
};

/// The scalar reference table (always available).
const LaneOps& scalar_ops() noexcept;

/// The table compiled for `isa` (scalar when the build lacks bodies for
/// it — e.g. requesting kNeon on x86).
const LaneOps& ops_for(KernelIsa isa) noexcept;

/// ops_for(dispatched_isa()) — the table every plan runs unless pinned
/// to scalar_ops().
const LaneOps& dispatched_ops() noexcept;

/// Below this column count the lane kernels cannot fill one vector.
/// Strip rows still call row_solve at every width (its scalar tail keeps
/// the 2-3 lanes in registers, which beat inline loops), but narrower
/// strips skip the lookahead prefetch, lane groups give each group at
/// least this many lanes, and FactorPlan inlines shorter scatter lists
/// (bitwise either way).
inline constexpr index_t kLaneMin = 4;

/// Software prefetch of the line holding `p` into all cache levels.
/// Prefetches never fault, so callers may pass one-past-the-end
/// addresses (the tail prefetch of a linear record walk).
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace pdx::sparse::kernels
