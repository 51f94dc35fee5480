// kernels.cpp — the LaneOps tables (DESIGN.md §14).
//
// The whole file compiles with the project's portable baseline flags;
// the AVX2 bodies opt into their ISA with per-function target attributes
// so nothing else in the binary can accidentally emit AVX2. None of them
// enables FMA: the kernels must round exactly like the baseline-compiled
// scalar reference, which cannot contract mul+sub into an FMA.
#include "sparse/kernels.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define PDX_HAVE_NEON 1
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define PDX_HAVE_AVX2_BODIES 1
#endif

namespace pdx::sparse::kernels {

namespace {

// --- scalar reference ---------------------------------------------------
// These loops ARE the plans' historical inner arithmetic. The strip
// rows call row_solve at every width; the strip-lane entries below serve
// every strip of two or more lanes, and a one-lane strip runs the plain
// single-vector loops instead.

void row_solve_scalar(double* t, const double* src, const double* vals,
                      const index_t* cols, index_t cnt, double diag,
                      const double* xs, index_t k) {
  for (index_t c = 0; c < k; ++c) t[c] = src[c];
  for (index_t j = 0; j < cnt; ++j) {
    const double a = vals[j];
    const double* x = xs + cols[j] * k;
    for (index_t c = 0; c < k; ++c) t[c] -= a * x[c];
  }
  for (index_t c = 0; c < k; ++c) t[c] /= diag;
}

void gather_axpy_scalar(double* w, const index_t* tgt, const index_t* src,
                        index_t cnt, double a) {
  for (index_t t = 0; t < cnt; ++t) w[tgt[t]] -= a * w[src[t]];
}

void spmv_row_scalar(double* y, const double* vals, const index_t* cols,
                     index_t cnt, const double* xs, index_t k) {
  for (index_t c = 0; c < k; ++c) y[c] = 0.0;
  for (index_t j = 0; j < cnt; ++j) {
    const double v = vals[j];
    const double* x = xs + cols[j] * k;
    for (index_t c = 0; c < k; ++c) y[c] += v * x[c];
  }
}

void lane_dot_scalar(double* out, const double* a, const double* b,
                     index_t n, index_t k) {
  for (index_t c = 0; c < k; ++c) out[c] = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double* ai = a + i * k;
    const double* bi = b + i * k;
    for (index_t c = 0; c < k; ++c) out[c] += ai[c] * bi[c];
  }
}

void lane_axpy_scalar(double* y, const double* alpha, const double* x,
                      index_t n, index_t k) {
  for (index_t i = 0; i < n; ++i) {
    double* yi = y + i * k;
    const double* xi = x + i * k;
    for (index_t c = 0; c < k; ++c) yi[c] += alpha[c] * xi[c];
  }
}

void lane_xpby_scalar(double* y, const double* beta, const double* x,
                      index_t n, index_t k) {
  for (index_t i = 0; i < n; ++i) {
    double* yi = y + i * k;
    const double* xi = x + i * k;
    for (index_t c = 0; c < k; ++c) yi[c] = xi[c] + beta[c] * yi[c];
  }
}

void transpose_scalar(const double* src, index_t rows, index_t cols,
                      double* dst) {
  // 8-row tiles: the reads of a tile stay in a few cache lines per column.
  constexpr index_t kTile = 8;
  for (index_t i0 = 0; i0 < rows; i0 += kTile) {
    const index_t i1 = i0 + kTile < rows ? i0 + kTile : rows;
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = i0; i < i1; ++i) dst[j * rows + i] = src[i * cols + j];
    }
  }
}

constexpr LaneOps kScalarOps = {KernelIsa::kScalar, row_solve_scalar,
                                gather_axpy_scalar, spmv_row_scalar,
                                lane_dot_scalar,    lane_axpy_scalar,
                                lane_xpby_scalar,   transpose_scalar};

#if defined(PDX_HAVE_AVX2_BODIES)

// --- AVX2 ----------------------------------------------------------------
// Every body uses mul+sub (two roundings, like the scalar reference).

/// One row_solve register block: V ymm accumulators cover 4V consecutive
/// lanes from the load of `src` to the one store of `t`. The lane loops
/// are unrolled by pragma: left to -O2, GCC keeps the V = 4 block rolled
/// with its accumulators on the stack (2x slower at k = 16).
template <int V>
__attribute__((target("avx2"))) inline void row_solve_block(
    double* t, const double* src, const double* vals, const index_t* cols,
    index_t cnt, double diag, const double* xs, index_t k) {
  __m256d acc[V];
  #pragma GCC unroll 4
  for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_pd(src + 4 * v);
  for (index_t j = 0; j < cnt; ++j) {
    const __m256d av = _mm256_set1_pd(vals[j]);
    const double* x = xs + cols[j] * k;
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_sub_pd(acc[v],
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + 4 * v)));
    }
  }
  const __m256d dv = _mm256_set1_pd(diag);
  #pragma GCC unroll 4
  for (int v = 0; v < V; ++v) {
    _mm256_storeu_pd(t + 4 * v, _mm256_div_pd(acc[v], dv));
  }
}

/// The 1-3 lanes past the last 4-lane block: R scalar accumulators, one
/// pass over the dependence list. Against one pass per lane (the NEON
/// body's form for its single tail lane) this measured 1.3-1.6x faster
/// with 2-3 tail lanes and 1.04-1.10x with one, on forward+backward
/// ILU(0) sweeps of a 48² stencil at k = 1-15 (interleaved, median of
/// 400, 4-vCPU AVX2 VM).
template <int R>
__attribute__((target("avx2"))) inline void row_solve_tail(
    double* t, const double* src, const double* vals, const index_t* cols,
    index_t cnt, double diag, const double* xs, index_t k) {
  double acc[R];
  #pragma GCC unroll 4
  for (int c = 0; c < R; ++c) acc[c] = src[c];
  for (index_t j = 0; j < cnt; ++j) {
    const double a = vals[j];
    const double* x = xs + cols[j] * k;
    #pragma GCC unroll 4
    for (int c = 0; c < R; ++c) acc[c] -= a * x[c];
  }
  #pragma GCC unroll 4
  for (int c = 0; c < R; ++c) t[c] = acc[c] / diag;
}

__attribute__((target("avx2"))) void row_solve_avx2(
    double* t, const double* src, const double* vals, const index_t* cols,
    index_t cnt, double diag, const double* xs, index_t k) {
  // One pass over the dependence list per register block, the strip row
  // streaming once per block. Per lane the j-ordered mul+sub sequence and
  // the final division are exactly the scalar loop's, so neither the
  // nest swap nor the register accumulation changes any rounding. The
  // tail is scalar: a masked 4-lane tail measured ~1.7x slower (store
  // forwarding).
  index_t c = 0;
  for (; c + 16 <= k; c += 16) {
    row_solve_block<4>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
  }
  if (c + 8 <= k) {
    row_solve_block<2>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
    c += 8;
  }
  if (c + 4 <= k) {
    row_solve_block<1>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
    c += 4;
  }
  switch (k - c) {
    case 1:
      row_solve_tail<1>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
      break;
    case 2:
      row_solve_tail<2>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
      break;
    case 3:
      row_solve_tail<3>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
      break;
    default:
      break;
  }
}

static_assert(sizeof(index_t) == 8,
              "the AVX2 gathers index with 64-bit lanes");

__attribute__((target("avx2"))) void gather_axpy_avx2(double* w,
                                                      const index_t* tgt,
                                                      const index_t* src,
                                                      index_t cnt, double a) {
  // tgt/src position sets are disjoint and tgt positions distinct (the
  // LaneOps contract), so gathering 4 sources and 4 targets before the
  // 4 scatter stores reads no element the same call writes.
  const __m256d av = _mm256_set1_pd(a);
  index_t t = 0;
  for (; t + 4 <= cnt; t += 4) {
    const __m256i si =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + t));
    const __m256i ti =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tgt + t));
    const __m256d sv = _mm256_i64gather_pd(w, si, 8);
    const __m256d tv = _mm256_i64gather_pd(w, ti, 8);
    alignas(32) double out[4];
    _mm256_store_pd(out, _mm256_sub_pd(tv, _mm256_mul_pd(av, sv)));
    w[tgt[t + 0]] = out[0];
    w[tgt[t + 1]] = out[1];
    w[tgt[t + 2]] = out[2];
    w[tgt[t + 3]] = out[3];
  }
  for (; t < cnt; ++t) w[tgt[t]] -= a * w[src[t]];
}

// --- AVX2 strip lanes ------------------------------------------------------
// V ymm accumulators cover 4V consecutive lanes and stay in registers for
// the whole reduction (a row's dependence list, or every strip row); the
// 1-3 lanes past the last 4-lane block run the scalar loop. Each lane's
// operation sequence is the scalar reference's either way.

template <int V>
__attribute__((target("avx2"))) inline void spmv_row_block(
    double* y, const double* vals, const index_t* cols, index_t cnt,
    const double* xs, index_t k) {
  __m256d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_pd();
  for (index_t j = 0; j < cnt; ++j) {
    const __m256d av = _mm256_set1_pd(vals[j]);
    const double* x = xs + cols[j] * k;
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + 4 * v)));
    }
  }
  for (int v = 0; v < V; ++v) _mm256_storeu_pd(y + 4 * v, acc[v]);
}

__attribute__((target("avx2"))) void spmv_row_avx2(double* y,
                                                   const double* vals,
                                                   const index_t* cols,
                                                   index_t cnt,
                                                   const double* xs,
                                                   index_t k) {
  index_t c = 0;
  for (; c + 16 <= k; c += 16) {
    spmv_row_block<4>(y + c, vals, cols, cnt, xs + c, k);
  }
  if (c + 8 <= k) {
    spmv_row_block<2>(y + c, vals, cols, cnt, xs + c, k);
    c += 8;
  }
  if (c + 4 <= k) {
    spmv_row_block<1>(y + c, vals, cols, cnt, xs + c, k);
    c += 4;
  }
  for (; c < k; ++c) {
    double acc = 0.0;
    for (index_t j = 0; j < cnt; ++j) acc += vals[j] * xs[cols[j] * k + c];
    y[c] = acc;
  }
}

template <int V>
__attribute__((target("avx2"))) inline void lane_dot_block(
    double* out, const double* a, const double* b, index_t n, index_t k) {
  __m256d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_pd();
  for (index_t i = 0; i < n; ++i) {
    const double* ai = a + i * k;
    const double* bi = b + i * k;
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v], _mm256_mul_pd(_mm256_loadu_pd(ai + 4 * v),
                                _mm256_loadu_pd(bi + 4 * v)));
    }
  }
  for (int v = 0; v < V; ++v) _mm256_storeu_pd(out + 4 * v, acc[v]);
}

__attribute__((target("avx2"))) void lane_dot_avx2(double* out,
                                                   const double* a,
                                                   const double* b,
                                                   index_t n, index_t k) {
  index_t c = 0;
  for (; c + 16 <= k; c += 16) {
    lane_dot_block<4>(out + c, a + c, b + c, n, k);
  }
  if (c + 8 <= k) {
    lane_dot_block<2>(out + c, a + c, b + c, n, k);
    c += 8;
  }
  if (c + 4 <= k) {
    lane_dot_block<1>(out + c, a + c, b + c, n, k);
    c += 4;
  }
  // The 1-3 tail lanes share one pass, each in its own register.
  const index_t rem = k - c;
  if (rem == 0) return;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double* ai = a + i * k + c;
    const double* bi = b + i * k + c;
    s0 += ai[0] * bi[0];
    if (rem > 1) s1 += ai[1] * bi[1];
    if (rem > 2) s2 += ai[2] * bi[2];
  }
  out[c] = s0;
  if (rem > 1) out[c + 1] = s1;
  if (rem > 2) out[c + 2] = s2;
}

__attribute__((target("avx2"))) void lane_axpy_avx2(double* y,
                                                    const double* alpha,
                                                    const double* x,
                                                    index_t n, index_t k) {
  for (index_t i = 0; i < n; ++i) {
    double* yi = y + i * k;
    const double* xi = x + i * k;
    index_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const __m256d prod =
          _mm256_mul_pd(_mm256_loadu_pd(alpha + c), _mm256_loadu_pd(xi + c));
      _mm256_storeu_pd(yi + c, _mm256_add_pd(_mm256_loadu_pd(yi + c), prod));
    }
    for (; c < k; ++c) yi[c] += alpha[c] * xi[c];
  }
}

__attribute__((target("avx2"))) void lane_xpby_avx2(double* y,
                                                    const double* beta,
                                                    const double* x,
                                                    index_t n, index_t k) {
  for (index_t i = 0; i < n; ++i) {
    double* yi = y + i * k;
    const double* xi = x + i * k;
    index_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const __m256d prod =
          _mm256_mul_pd(_mm256_loadu_pd(beta + c), _mm256_loadu_pd(yi + c));
      _mm256_storeu_pd(yi + c, _mm256_add_pd(_mm256_loadu_pd(xi + c), prod));
    }
    for (; c < k; ++c) yi[c] = xi[c] + beta[c] * yi[c];
  }
}

/// One 4x4 register tile of transpose_avx2: src rows i..i+3, columns
/// j..j+3.
__attribute__((target("avx2"))) inline void transpose_tile_avx2(
    const double* src, index_t rows, index_t cols, double* dst, index_t i,
    index_t j) {
  const double* s = src + i * cols + j;
  const __m256d r0 = _mm256_loadu_pd(s);
  const __m256d r1 = _mm256_loadu_pd(s + cols);
  const __m256d r2 = _mm256_loadu_pd(s + 2 * cols);
  const __m256d r3 = _mm256_loadu_pd(s + 3 * cols);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  double* d = dst + j * rows + i;
  _mm256_storeu_pd(d, _mm256_permute2f128_pd(t0, t2, 0x20));
  _mm256_storeu_pd(d + rows, _mm256_permute2f128_pd(t1, t3, 0x20));
  _mm256_storeu_pd(d + 2 * rows, _mm256_permute2f128_pd(t0, t2, 0x31));
  _mm256_storeu_pd(d + 3 * rows, _mm256_permute2f128_pd(t1, t3, 0x31));
}

__attribute__((target("avx2"))) void transpose_avx2(const double* src,
                                                    index_t rows,
                                                    index_t cols,
                                                    double* dst) {
  // 4x4 register tiles; the wide side (a long row of src or dst) is
  // walked in the inner loop so its lines stream.
  const index_t r4 = rows - rows % 4;
  const index_t c4 = cols - cols % 4;
  if (rows <= cols) {
    for (index_t j = 0; j < c4; j += 4) {
      for (index_t i = 0; i < r4; i += 4) {
        transpose_tile_avx2(src, rows, cols, dst, i, j);
      }
    }
  } else {
    for (index_t i = 0; i < r4; i += 4) {
      for (index_t j = 0; j < c4; j += 4) {
        transpose_tile_avx2(src, rows, cols, dst, i, j);
      }
    }
  }
  // The ragged edges: the last rows % 4 rows, then the last cols % 4
  // columns of the tiled rows.
  for (index_t i = r4; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
  }
  for (index_t j = c4; j < cols; ++j) {
    for (index_t i = 0; i < r4; ++i) dst[j * rows + i] = src[i * cols + j];
  }
}

constexpr LaneOps kAvx2Ops = {KernelIsa::kAvx2, row_solve_avx2,
                              gather_axpy_avx2, spmv_row_avx2,
                              lane_dot_avx2,    lane_axpy_avx2,
                              lane_xpby_avx2,   transpose_avx2};

#endif  // PDX_HAVE_AVX2_BODIES

#if defined(PDX_HAVE_NEON)

// --- NEON ----------------------------------------------------------------
// Baseline on aarch64 — no target attributes or CPUID probe needed. The
// kernels keep mul+sub separate (vmlsq_f64 may emit a fused FMLS, which
// rounds once where the reference rounds twice); there is no hardware
// gather, so gather_axpy stays scalar and only the streaming lane kernels
// vectorize.

/// One row_solve register block: V q-registers cover 2V lanes.
template <int V>
inline void row_solve_block_neon(double* t, const double* src,
                                 const double* vals, const index_t* cols,
                                 index_t cnt, double diag, const double* xs,
                                 index_t k) {
  float64x2_t acc[V];
  #pragma GCC unroll 4
  for (int v = 0; v < V; ++v) acc[v] = vld1q_f64(src + 2 * v);
  for (index_t j = 0; j < cnt; ++j) {
    const float64x2_t av = vdupq_n_f64(vals[j]);
    const double* x = xs + cols[j] * k;
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      acc[v] = vsubq_f64(acc[v], vmulq_f64(av, vld1q_f64(x + 2 * v)));
    }
  }
  const float64x2_t dv = vdupq_n_f64(diag);
  #pragma GCC unroll 4
  for (int v = 0; v < V; ++v) vst1q_f64(t + 2 * v, vdivq_f64(acc[v], dv));
}

void row_solve_neon(double* t, const double* src, const double* vals,
                    const index_t* cols, index_t cnt, double diag,
                    const double* xs, index_t k) {
  // The AVX2 body's shape with 2-lane registers: 8/4/2-lane blocks, then
  // one scalar lane.
  index_t c = 0;
  for (; c + 8 <= k; c += 8) {
    row_solve_block_neon<4>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
  }
  if (c + 4 <= k) {
    row_solve_block_neon<2>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
    c += 4;
  }
  if (c + 2 <= k) {
    row_solve_block_neon<1>(t + c, src + c, vals, cols, cnt, diag, xs + c, k);
    c += 2;
  }
  if (c < k) {
    double acc = src[c];
    for (index_t j = 0; j < cnt; ++j) acc -= vals[j] * xs[cols[j] * k + c];
    t[c] = acc / diag;
  }
}

// The strip-lane kernels run the scalar reference on NEON.
constexpr LaneOps kNeonOps = {KernelIsa::kNeon,   row_solve_neon,
                              gather_axpy_scalar, spmv_row_scalar,
                              lane_dot_scalar,    lane_axpy_scalar,
                              lane_xpby_scalar,   transpose_scalar};

#endif  // PDX_HAVE_NEON

KernelIsa probe_isa() noexcept {
#if defined(PDX_HAVE_AVX2_BODIES)
  if (__builtin_cpu_supports("avx2")) return KernelIsa::kAvx2;
#elif defined(PDX_HAVE_NEON)
  return KernelIsa::kNeon;
#endif
  return KernelIsa::kScalar;
}

}  // namespace

KernelIsa resolve_isa(const char* override_value) noexcept {
  const KernelIsa hw = probe_isa();
  if (override_value == nullptr || *override_value == '\0') return hw;
  if (std::strcmp(override_value, "scalar") == 0) return KernelIsa::kScalar;
  if (std::strcmp(override_value, "avx2") == 0) {
    return hw == KernelIsa::kAvx2 ? hw : KernelIsa::kScalar;
  }
  if (std::strcmp(override_value, "neon") == 0) {
    return hw == KernelIsa::kNeon ? hw : KernelIsa::kScalar;
  }
  return hw;  // "auto" and anything unrecognized defer to the probe
}

KernelIsa dispatched_isa() noexcept {
  static const KernelIsa isa = resolve_isa(std::getenv("PDX_KERNEL"));
  return isa;
}

const LaneOps& scalar_ops() noexcept { return kScalarOps; }

const LaneOps& ops_for(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kScalar:
      break;
    case KernelIsa::kAvx2:
#if defined(PDX_HAVE_AVX2_BODIES)
      return kAvx2Ops;
#else
      break;
#endif
    case KernelIsa::kNeon:
#if defined(PDX_HAVE_NEON)
      return kNeonOps;
#else
      break;
#endif
  }
  return kScalarOps;
}

const LaneOps& dispatched_ops() noexcept { return ops_for(dispatched_isa()); }

}  // namespace pdx::sparse::kernels
