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
#include <type_traits>

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
// These loops ARE the plans' historical inner arithmetic, one lane after
// another; every vector body below is bitwise equal to them.

/// row_solve's row; `divide` false skips the final divide (sweep's
/// unit-diagonal rows, where it changes no bit).
inline void solve_row_scalar(double* t, const double* src,
                             const double* vals, const index_t* cols,
                             index_t cnt, double diag, const double* xs,
                             index_t k, bool divide) {
  for (index_t c = 0; c < k; ++c) t[c] = src[c];
  for (index_t j = 0; j < cnt; ++j) {
    const double a = vals[j];
    const double* x = xs + cols[j] * k;
    for (index_t c = 0; c < k; ++c) t[c] -= a * x[c];
  }
  if (divide) {
    for (index_t c = 0; c < k; ++c) t[c] /= diag;
  }
}

void row_solve_scalar(double* t, const double* src, const double* vals,
                      const index_t* cols, index_t cnt, double diag,
                      const double* xs, index_t k) {
  solve_row_scalar(t, src, vals, cols, cnt, diag, xs, k, true);
}

/// One factor row as sweep reads it: lower rows keep the diagonal last,
/// upper rows first. `divide` is false exactly for the rows whose divide
/// changes no bit — a unit diagonal after at least one dependence.
struct SweepRow {
  index_t row, cnt;
  const index_t* cols;
  const double* vals;
  double diag;
  bool divide;
};

inline SweepRow sweep_row(const CsrRef& f, bool upper,
                          index_t pos) noexcept {
  const index_t row = upper ? f.rows - 1 - pos : pos;
  const index_t b = f.ptr[row];
  const index_t cnt = f.ptr[row + 1] - b - 1;
  const index_t lo = upper ? b + 1 : b;
  const double diag = f.val[upper ? b : b + cnt];
  return {row, cnt, f.idx + lo, f.val + lo, diag, diag != 1.0 || cnt == 0};
}

void sweep_scalar(const CsrRef& f, bool upper, const double* in, double* xs,
                  index_t first, index_t last, index_t k) {
  for (index_t pos = first; pos < last; ++pos) {
    const SweepRow r = sweep_row(f, upper, pos);
    double* t = xs + r.row * k;
    solve_row_scalar(t, in ? in + r.row * k : t, r.vals, r.cols, r.cnt,
                     r.diag, xs, k, r.divide);
  }
}

void gather_axpy_scalar(double* w, const index_t* tgt, const index_t* src,
                        index_t cnt, double a) {
  for (index_t t = 0; t < cnt; ++t) w[tgt[t]] -= a * w[src[t]];
}

void spmv_dot_scalar(const CsrRef& a, const double* xs, double* ys,
                     double* dots, index_t k) {
  for (index_t c = 0; c < k; ++c) dots[c] = 0.0;
  for (index_t i = 0; i < a.rows; ++i) {
    double* y = ys + i * k;
    for (index_t c = 0; c < k; ++c) y[c] = 0.0;
    for (index_t j = a.ptr[i]; j < a.ptr[i + 1]; ++j) {
      const double v = a.val[j];
      const double* x = xs + a.idx[j] * k;
      for (index_t c = 0; c < k; ++c) y[c] += v * x[c];
    }
    const double* p = xs + i * k;
    for (index_t c = 0; c < k; ++c) dots[c] += p[c] * y[c];
  }
}

void cg_update_scalar(double* x, double* r, const double* alpha,
                      const double* p, const double* ap, double* dots,
                      index_t n, index_t k) {
  for (index_t c = 0; c < k; ++c) dots[c] = 0.0;
  for (index_t i = 0; i < n; ++i) {
    double* xi = x + i * k;
    double* ri = r + i * k;
    const double* pi = p + i * k;
    const double* api = ap + i * k;
    for (index_t c = 0; c < k; ++c) {
      xi[c] += alpha[c] * pi[c];
      ri[c] += -alpha[c] * api[c];
      dots[c] += ri[c] * ri[c];
    }
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

constexpr LaneOps kScalarOps = {
    .isa = KernelIsa::kScalar,
    .row_solve = row_solve_scalar,
    .sweep = sweep_scalar,
    .gather_axpy = gather_axpy_scalar,
    .spmv_dot = spmv_dot_scalar,
    .cg_update = cg_update_scalar,
    .lane_dot = lane_dot_scalar,
    .lane_xpby = lane_xpby_scalar,
    .transpose = transpose_scalar};

#if defined(PDX_HAVE_AVX2_BODIES) || defined(PDX_HAVE_NEON)

// --- register-block lane kernels ------------------------------------------
// Written once over a register type S: S::V holds S::kW consecutive
// lanes, and a block of N registers covers N·kW lanes with its
// accumulators in registers for the whole reduction — a row's dependence
// list, or every strip row. lane_blocks runs blocks of 4, then one of 3,
// 2 or 1 registers of the table's vector type, and the last lanes (fewer
// than one vector) as a block of scalar registers (Lane1). Each lane's
// operation sequence is the scalar reference's whatever the block, so
// neither the block split nor the register accumulation changes a bit.
// Every lane loop is unrolled by pragma: left to -O2, GCC keeps a
// 4-register block rolled with its accumulators on the stack (2x slower
// at k = 16). A masked vector tail measured ~1.7x slower than the scalar
// one (store forwarding).

#if defined(PDX_HAVE_AVX2_BODIES)
#define PDX_LANES __attribute__((target("avx2"), always_inline)) inline
#else
#define PDX_LANES __attribute__((always_inline)) inline
#endif

/// One lane per register: the tails.
struct Lane1 {
  using V = double;
  static constexpr index_t kW = 1;
  PDX_LANES static V zero() { return 0.0; }
  PDX_LANES static V set1(double a) { return a; }
  PDX_LANES static V load(const double* p) { return *p; }
  PDX_LANES static void store(double* p, V v) { *p = v; }
  PDX_LANES static V add(V a, V b) { return a + b; }
  PDX_LANES static V sub(V a, V b) { return a - b; }
  PDX_LANES static V mul(V a, V b) { return a * b; }
  PDX_LANES static V div(V a, V b) { return a / b; }
  PDX_LANES static V neg(V a) { return -a; }
};

/// Run K over lanes [0, k) of k-wide strips in register blocks of S (see
/// above): K::run<S, N>(c, k, args...) for the block starting at lane c.
/// A one-lane strip passes k as a compile-time 1, so its index
/// arithmetic is the plain vector loop's.
template <class S, class K, class... A>
PDX_LANES void lane_blocks(index_t k, A... args) {
  if (k == 1) {
    K::template run<Lane1, 1>(0, std::integral_constant<index_t, 1>{},
                              args...);
    return;
  }
  constexpr index_t w = S::kW;
  index_t c = 0;
  for (; c + 4 * w <= k; c += 4 * w) K::template run<S, 4>(c, k, args...);
  if (c + 3 * w <= k) {
    K::template run<S, 3>(c, k, args...);
    c += 3 * w;
  } else if (c + 2 * w <= k) {
    K::template run<S, 2>(c, k, args...);
    c += 2 * w;
  } else if (c + w <= k) {
    K::template run<S, 1>(c, k, args...);
    c += w;
  }
  switch (k - c) {
    case 1: K::template run<Lane1, 1>(c, k, args...); break;
    case 2: K::template run<Lane1, 2>(c, k, args...); break;
    case 3: K::template run<Lane1, 3>(c, k, args...); break;
    default: break;
  }
}

/// row_solve's row over one block: load src, subtract the dependence
/// list in j order (mul, then sub), divide when asked, store once.
struct RowSolve {
  template <class S, int N, class Kw>
  PDX_LANES static void run(index_t c, Kw k, double* t, const double* src,
                            const double* vals, const index_t* cols,
                            index_t cnt, double diag, const double* xs,
                            bool divide) {
    constexpr index_t w = S::kW;
    typename S::V acc[N];
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) acc[v] = S::load(src + c + w * v);
    for (index_t j = 0; j < cnt; ++j) {
      const typename S::V av = S::set1(vals[j]);
      const double* x = xs + cols[j] * k + c;
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) {
        acc[v] = S::sub(acc[v], S::mul(av, S::load(x + w * v)));
      }
    }
    if (divide) {
      const typename S::V dv = S::set1(diag);
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) acc[v] = S::div(acc[v], dv);
    }
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) S::store(t + c + w * v, acc[v]);
  }
};

/// Row after row, every block of a row before the next row: the blocks
/// of one row are independent, so they overlap on the row-to-row
/// dependence chain that bounds a serial sweep.
template <class S, bool kUpper>
PDX_LANES void sweep_dir(const CsrRef& m, const double* in, double* xs,
                         index_t first, index_t last, index_t k) {
  // A local copy: the stores below (through may_alias vector types)
  // would otherwise force a reload of the arrays' pointers every row.
  const CsrRef f = m;
  for (index_t pos = first; pos < last; ++pos) {
    const SweepRow r = sweep_row(f, kUpper, pos);
    double* t = xs + r.row * k;
    lane_blocks<S, RowSolve>(k, t, in ? in + r.row * k : t, r.vals, r.cols,
                             r.cnt, r.diag, xs, r.divide);
  }
}

template <class S>
PDX_LANES void sweep_lanes(const CsrRef& f, bool upper, const double* in,
                           double* xs, index_t first, index_t last,
                           index_t k) {
  if (upper) {
    sweep_dir<S, true>(f, in, xs, first, last, k);
  } else {
    sweep_dir<S, false>(f, in, xs, first, last, k);
  }
}

/// spmv_dot over one block: every row's product and its dot term while
/// the row's sums are still in registers.
struct SpmvDot {
  template <class S, int N, class Kw>
  PDX_LANES static void run(index_t c, Kw k, const CsrRef* m,
                            const double* xs, double* ys, double* dots) {
    constexpr index_t w = S::kW;
    const CsrRef a = *m;  // local: see sweep_dir
    typename S::V dot[N];
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) dot[v] = S::zero();
    for (index_t i = 0; i < a.rows; ++i) {
      typename S::V acc[N];
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) acc[v] = S::zero();
      for (index_t j = a.ptr[i]; j < a.ptr[i + 1]; ++j) {
        const typename S::V av = S::set1(a.val[j]);
        const double* x = xs + a.idx[j] * k + c;
        #pragma GCC unroll 4
        for (int v = 0; v < N; ++v) {
          acc[v] = S::add(acc[v], S::mul(av, S::load(x + w * v)));
        }
      }
      const double* p = xs + i * k + c;
      double* y = ys + i * k + c;
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) {
        S::store(y + w * v, acc[v]);
        dot[v] = S::add(dot[v], S::mul(S::load(p + w * v), acc[v]));
      }
    }
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) S::store(dots + c + w * v, dot[v]);
  }
};

/// cg_update over one block: both updates of a row, then its r² term
/// from the r just computed.
struct CgUpdate {
  template <class S, int N, class Kw>
  PDX_LANES static void run(index_t c, Kw k, double* x, double* r,
                            const double* alpha, const double* p,
                            const double* ap, double* dots, index_t n) {
    constexpr index_t w = S::kW;
    typename S::V al[N], na[N], dot[N];
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) {
      al[v] = S::load(alpha + c + w * v);
      na[v] = S::neg(al[v]);
      dot[v] = S::zero();
    }
    for (index_t i = 0; i < n; ++i) {
      const index_t o = i * k + c;
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) {
        const index_t e = o + w * v;
        S::store(x + e, S::add(S::load(x + e), S::mul(al[v], S::load(p + e))));
        const typename S::V rv =
            S::add(S::load(r + e), S::mul(na[v], S::load(ap + e)));
        S::store(r + e, rv);
        dot[v] = S::add(dot[v], S::mul(rv, rv));
      }
    }
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) S::store(dots + c + w * v, dot[v]);
  }
};

/// lane_dot over one block.
struct LaneDot {
  template <class S, int N, class Kw>
  PDX_LANES static void run(index_t c, Kw k, double* out, const double* a,
                            const double* b, index_t n) {
    constexpr index_t w = S::kW;
    typename S::V acc[N];
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) acc[v] = S::zero();
    for (index_t i = 0; i < n; ++i) {
      const index_t o = i * k + c;
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) {
        acc[v] = S::add(acc[v], S::mul(S::load(a + o + w * v),
                                       S::load(b + o + w * v)));
      }
    }
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) S::store(out + c + w * v, acc[v]);
  }
};

/// lane_xpby over one block, the block's betas in registers.
struct LaneXpby {
  template <class S, int N, class Kw>
  PDX_LANES static void run(index_t c, Kw k, double* y, const double* beta,
                            const double* x, index_t n) {
    constexpr index_t w = S::kW;
    typename S::V b[N];
    #pragma GCC unroll 4
    for (int v = 0; v < N; ++v) b[v] = S::load(beta + c + w * v);
    for (index_t i = 0; i < n; ++i) {
      const index_t o = i * k + c;
      #pragma GCC unroll 4
      for (int v = 0; v < N; ++v) {
        const index_t e = o + w * v;
        S::store(y + e, S::add(S::load(x + e), S::mul(b[v], S::load(y + e))));
      }
    }
  }
};

#endif  // PDX_HAVE_AVX2_BODIES || PDX_HAVE_NEON

#if defined(PDX_HAVE_AVX2_BODIES)

// --- AVX2 ----------------------------------------------------------------
// Every body uses mul+sub (two roundings, like the scalar reference).

struct Avx2 {
  using V = __m256d;
  static constexpr index_t kW = 4;
  PDX_LANES static V zero() { return _mm256_setzero_pd(); }
  PDX_LANES static V set1(double a) { return _mm256_set1_pd(a); }
  PDX_LANES static V load(const double* p) { return _mm256_loadu_pd(p); }
  PDX_LANES static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  PDX_LANES static V add(V a, V b) { return _mm256_add_pd(a, b); }
  PDX_LANES static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  PDX_LANES static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  PDX_LANES static V div(V a, V b) { return _mm256_div_pd(a, b); }
  PDX_LANES static V neg(V a) {
    return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
  }
};

__attribute__((target("avx2"))) void row_solve_avx2(
    double* t, const double* src, const double* vals, const index_t* cols,
    index_t cnt, double diag, const double* xs, index_t k) {
  lane_blocks<Avx2, RowSolve>(k, t, src, vals, cols, cnt, diag, xs, true);
}

__attribute__((target("avx2"))) void sweep_avx2(const CsrRef& f, bool upper,
                                                const double* in, double* xs,
                                                index_t first, index_t last,
                                                index_t k) {
  sweep_lanes<Avx2>(f, upper, in, xs, first, last, k);
}

__attribute__((target("avx2"))) void spmv_dot_avx2(const CsrRef& a,
                                                   const double* xs,
                                                   double* ys, double* dots,
                                                   index_t k) {
  lane_blocks<Avx2, SpmvDot>(k, &a, xs, ys, dots);
}

__attribute__((target("avx2"))) void cg_update_avx2(
    double* x, double* r, const double* alpha, const double* p,
    const double* ap, double* dots, index_t n, index_t k) {
  lane_blocks<Avx2, CgUpdate>(k, x, r, alpha, p, ap, dots, n);
}

__attribute__((target("avx2"))) void lane_dot_avx2(double* out,
                                                   const double* a,
                                                   const double* b,
                                                   index_t n, index_t k) {
  lane_blocks<Avx2, LaneDot>(k, out, a, b, n);
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

__attribute__((target("avx2"))) void lane_xpby_avx2(double* y,
                                                    const double* beta,
                                                    const double* x,
                                                    index_t n, index_t k) {
  lane_blocks<Avx2, LaneXpby>(k, y, beta, x, n);
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

constexpr LaneOps kAvx2Ops = {
    .isa = KernelIsa::kAvx2,
    .row_solve = row_solve_avx2,
    .sweep = sweep_avx2,
    .gather_axpy = gather_axpy_avx2,
    .spmv_dot = spmv_dot_avx2,
    .cg_update = cg_update_avx2,
    .lane_dot = lane_dot_avx2,
    .lane_xpby = lane_xpby_avx2,
    .transpose = transpose_avx2};

#endif  // PDX_HAVE_AVX2_BODIES

#if defined(PDX_HAVE_NEON)

// --- NEON ----------------------------------------------------------------
// Baseline on aarch64 — no target attributes or CPUID probe needed. The
// kernels keep mul+sub separate (vmlsq_f64 may emit a fused FMLS, which
// rounds once where the reference rounds twice); there is no hardware
// gather, so gather_axpy stays scalar, and transpose runs the scalar
// reference too.

struct Neon {
  using V = float64x2_t;
  static constexpr index_t kW = 2;
  PDX_LANES static V zero() { return vdupq_n_f64(0.0); }
  PDX_LANES static V set1(double a) { return vdupq_n_f64(a); }
  PDX_LANES static V load(const double* p) { return vld1q_f64(p); }
  PDX_LANES static void store(double* p, V v) { vst1q_f64(p, v); }
  PDX_LANES static V add(V a, V b) { return vaddq_f64(a, b); }
  PDX_LANES static V sub(V a, V b) { return vsubq_f64(a, b); }
  PDX_LANES static V mul(V a, V b) { return vmulq_f64(a, b); }
  PDX_LANES static V div(V a, V b) { return vdivq_f64(a, b); }
  PDX_LANES static V neg(V a) { return vnegq_f64(a); }
};

void row_solve_neon(double* t, const double* src, const double* vals,
                    const index_t* cols, index_t cnt, double diag,
                    const double* xs, index_t k) {
  lane_blocks<Neon, RowSolve>(k, t, src, vals, cols, cnt, diag, xs, true);
}

void sweep_neon(const CsrRef& f, bool upper, const double* in, double* xs,
                index_t first, index_t last, index_t k) {
  sweep_lanes<Neon>(f, upper, in, xs, first, last, k);
}

void spmv_dot_neon(const CsrRef& a, const double* xs, double* ys,
                   double* dots, index_t k) {
  lane_blocks<Neon, SpmvDot>(k, &a, xs, ys, dots);
}

void cg_update_neon(double* x, double* r, const double* alpha,
                    const double* p, const double* ap, double* dots,
                    index_t n, index_t k) {
  lane_blocks<Neon, CgUpdate>(k, x, r, alpha, p, ap, dots, n);
}

void lane_dot_neon(double* out, const double* a, const double* b, index_t n,
                   index_t k) {
  lane_blocks<Neon, LaneDot>(k, out, a, b, n);
}

void lane_xpby_neon(double* y, const double* beta, const double* x,
                    index_t n, index_t k) {
  lane_blocks<Neon, LaneXpby>(k, y, beta, x, n);
}

constexpr LaneOps kNeonOps = {
    .isa = KernelIsa::kNeon,
    .row_solve = row_solve_neon,
    .sweep = sweep_neon,
    .gather_axpy = gather_axpy_scalar,
    .spmv_dot = spmv_dot_neon,
    .cg_update = cg_update_neon,
    .lane_dot = lane_dot_neon,
    .lane_xpby = lane_xpby_neon,
    .transpose = transpose_scalar};

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
