// kernel_micro — measures the vector kernel layer (DESIGN.md §14).
//
// The lane-parallel batch kernels treat the k columns of the
// wavefront-interleaved strip as SIMD lanes; this harness isolates their
// effect by timing the SAME single-threaded serial plan over the SAME
// packed factors with the kernel table pinned to scalar vs the
// dispatched vector ISA. Everything else — schedule, layout, strip
// walks — is identical, so the ratio is the kernels' contribution alone.
//
// Two factor sizes bound the regime: a cache-resident nine-point factor
// (the kernels are compute-limited) and one sized past the last-level
// cache (the packed streams are re-fetched from memory every solve, the
// regime the record padding and software prefetch target). k=1 rides
// along as a control: single-column batches never enter the lane
// kernels, so its ratio sits at 1.0 and any drift flags harness noise.
//
// Vector results are verified bitwise against scalar per column before
// any timing is trusted. `--json <path>` writes the table as a JSON
// artifact (CI publishes it as BENCH_kernel.json and gates the lane
// speedups via ci/perf_gate.py --kernel).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <numeric>

#include "benchsupport/env.hpp"
#include "benchsupport/table.hpp"
#include "benchsupport/timer.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/kernels.hpp"
#include "sparse/packed_stream.hpp"
#include "sparse/trisolve_plan.hpp"

namespace bench = pdx::bench;
namespace gen = pdx::gen;
namespace kn = pdx::sparse::kernels;
namespace rt = pdx::rt;
namespace sp = pdx::sparse;
using pdx::index_t;

namespace {

struct Row {
  const char* factor;  // "resident" | "spilled"
  index_t n = 0;
  std::size_t packed_bytes = 0;
  index_t k = 0;
  double us_scalar = 0.0;  // per batch solve
  double us_vector = 0.0;
};

// Bytes one batched solve streams: both packed factor slabs plus the b
// read, x write and one strip round-trip. Coarse — a bandwidth figure
// for the table, not a cache model.
double solve_bytes(std::size_t packed, index_t n, index_t k) {
  return static_cast<double>(packed) +
         3.0 * static_cast<double>(n) * static_cast<double>(k) * 8.0;
}

// One pass of the row kernel alone over a packed slab: every record is
// one fused row_solve in place in the target strip `ts` (the backward
// solve's form), its dependence list against a read-only source strip
// `xs`. This is the "*_kern" rows' workload — the lane-parallel kernel
// with a two-record lookahead-prefetch schedule on the vector side and
// the plain reference walk on the scalar side, with the strip transposes
// and the dependence chain of a full solve absent (no row reads another
// row's result). The solve rows above measure those too; the kern rows
// isolate what the kernel layer itself buys. The L factor's diagonal is
// 1.0, so each division is exact and repeated sweeps over one target
// strip only accumulate: no sweep drifts into subnormals.
void kernel_sweep(const sp::PackedFactorStream& stream,
                  const kn::LaneOps& ops, index_t n, index_t k, double* ts,
                  const double* xs) {
  auto cur = stream.cursor(0);
  if (ops.isa != kn::KernelIsa::kScalar && k >= kn::kLaneMin) {
    // Two records of lookahead: the fused kernel retires a row in less
    // time than a last-level-cache hit, so one record of distance leaves
    // the prefetches half-finished.
    sp::PackedRow r0 = n > 0 ? cur.next() : sp::PackedRow{};
    sp::PackedRow r1 = n > 1 ? cur.next() : sp::PackedRow{};
    for (index_t i = 0; i < n; ++i) {
      const sp::PackedRow nx = i + 2 < n ? cur.next() : sp::PackedRow{};
      for (index_t j = 0; j < nx.cnt; ++j) {
        const double* p = xs + nx.cols[j] * k;
        for (index_t o = 0; o < k; o += 8) kn::prefetch_read(p + o);
      }
      double* t = ts + r0.row * k;
      ops.row_solve(t, t, r0.vals, r0.cols, r0.cnt, r0.diag, xs, k);
      r0 = r1;
      r1 = nx;
    }
  } else {
    for (index_t i = 0; i < n; ++i) {
      const sp::PackedRow r = cur.next();
      double* t = ts + r.row * k;
      ops.row_solve(t, t, r.vals, r.cols, r.cnt, r.diag, xs, k);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::cout << bench::environment_banner("kernel_micro (vector kernels)")
            << "\n";
  const int reps = bench::default_reps();
  // Resident: the whole packed pair fits in L2. Spilled: streams well
  // past a desktop LLC so every solve re-fetches them from memory.
  const index_t resident_grid = 48;
  const index_t spilled_grid = bench::quick_mode() ? 180 : 420;

  rt::ThreadPool pool(1);
  const index_t ks[] = {1, 8, 16};
  const index_t max_k = 16;

  std::printf("dispatched isa: %s\n\n", kn::to_string(kn::dispatched_isa()));

  bench::Table table({"factor", "rows", "packed(MB)", "k", "scalar(us)",
                      "vector(us)", "speedup", "Mrow/s vec", "GB/s vec"});
  std::vector<Row> rows;
  bool all_exact = true;

  struct Factor {
    const char* name;
    const char* kern_name;
    index_t grid;
  };
  for (const Factor fac :
       {Factor{"resident", "resident_kern", resident_grid},
        Factor{"spilled", "spilled_kern", spilled_grid}}) {
    const sp::IluFactors f = sp::ilu0(gen::nine_point(fac.grid, fac.grid));
    const index_t n = f.l.rows;

    auto make_plan = [&](kn::KernelChoice kc) {
      sp::PlanOptions o;
      o.nthreads = 1;
      o.strategy = sp::ExecutionStrategy::kSerial;
      o.layout = sp::PlanLayout::kPacked;
      o.kernel = kc;
      return std::make_unique<sp::TrisolvePlan>(pool, f.l, f.u, o);
    };
    auto scalar = make_plan(kn::KernelChoice::kScalar);
    auto vector = make_plan(kn::KernelChoice::kVector);
    scalar->reserve_batch(max_k);
    vector->reserve_batch(max_k);
    const std::size_t packed = scalar->packed_bytes();

    gen::SplitMix64 rng(17);
    std::vector<double> b(static_cast<std::size_t>(n * max_k));
    for (auto& v : b) v = rng.next_double(-1.0, 1.0);
    std::vector<double> x_s(b.size()), x_v(b.size());

    for (index_t k : ks) {
      const std::span<const double> bk(b.data(),
                                       static_cast<std::size_t>(n * k));
      auto run_scalar = [&] {
        scalar->solve_batch(bk,
                            std::span<double>(x_s.data(),
                                              static_cast<std::size_t>(n * k)),
                            k);
      };
      auto run_vector = [&] {
        vector->solve_batch(bk,
                            std::span<double>(x_v.data(),
                                              static_cast<std::size_t>(n * k)),
                            k);
      };

      // Bitwise gate before timing: the lane kernels promise per-column
      // identity with the scalar reference.
      run_scalar();
      run_vector();
      for (index_t i = 0; i < n * k; ++i) {
        if (x_s[static_cast<std::size_t>(i)] !=
            x_v[static_cast<std::size_t>(i)]) {
          all_exact = false;
          std::fprintf(stderr, "MISMATCH %s k=%lld at %lld\n", fac.name,
                       static_cast<long long>(k),
                       static_cast<long long>(i));
          break;
        }
      }

      const auto t_s = bench::time_samples(reps, 1, run_scalar);
      const auto t_v = bench::time_samples(reps, 1, run_vector);

      Row r;
      r.factor = fac.name;
      r.n = n;
      r.packed_bytes = packed;
      r.k = k;
      r.us_scalar = *std::min_element(t_s.begin(), t_s.end()) * 1e6;
      r.us_vector = *std::min_element(t_v.begin(), t_v.end()) * 1e6;
      rows.push_back(r);

      const double sec_v = r.us_vector * 1e-6;
      const double mrow =
          static_cast<double>(n) * static_cast<double>(k) / sec_v * 1e-6;
      const double gbs = solve_bytes(packed, n, k) / sec_v * 1e-9;
      table.row()
          .cell(fac.name)
          .cell(static_cast<long long>(n))
          .cell(static_cast<double>(packed) / (1024.0 * 1024.0), 2)
          .cell(static_cast<long long>(k))
          .cell(r.us_scalar, 1)
          .cell(r.us_vector, 1)
          .cell(r.us_scalar / (r.us_vector > 0 ? r.us_vector : 1e-300), 2)
          .cell(mrow, 2)
          .cell(gbs, 2);
    }

    // --- kernel-only rows (the acceptance numbers) ---------------------
    // Same packed L factor, one fused row_solve per record against a
    // read-only source strip: the lane-parallel kernel with its prefetch
    // schedule, minus the strip transposes / record overheads a full
    // solve shares between both tables.
    sp::PackedFactorStream stream;
    std::vector<index_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), index_t{0});
    stream.prepare(f.l, /*diag_first=*/false, {order},
                   /*build_position_index=*/false);
    stream.pack(0);
    const std::size_t kern_packed = stream.bytes();

    std::vector<double> src_strip(static_cast<std::size_t>(n * max_k));
    for (auto& v : src_strip) v = rng.next_double(-1.0, 1.0);
    std::vector<double> tgt0(static_cast<std::size_t>(n * max_k));
    for (auto& v : tgt0) v = rng.next_double(-1.0, 1.0);
    const kn::LaneOps& sc_ops = kn::scalar_ops();
    const kn::LaneOps& vc_ops = kn::dispatched_ops();

    for (index_t k : ks) {
      const std::size_t nk = static_cast<std::size_t>(n * k);
      std::vector<double> t_s(tgt0.begin(), tgt0.begin() + nk);
      std::vector<double> t_v(t_s);
      kernel_sweep(stream, sc_ops, n, k, t_s.data(), src_strip.data());
      kernel_sweep(stream, vc_ops, n, k, t_v.data(), src_strip.data());
      for (std::size_t i = 0; i < nk; ++i) {
        if (t_s[i] != t_v[i]) {
          all_exact = false;
          std::fprintf(stderr, "MISMATCH %s k=%lld at %zu\n", fac.kern_name,
                       static_cast<long long>(k), i);
          break;
        }
      }

      std::vector<double> scratch(tgt0.begin(), tgt0.begin() + nk);
      const auto t_ks = bench::time_samples(reps, 1, [&] {
        kernel_sweep(stream, sc_ops, n, k, scratch.data(), src_strip.data());
      });
      const auto t_kv = bench::time_samples(reps, 1, [&] {
        kernel_sweep(stream, vc_ops, n, k, scratch.data(), src_strip.data());
      });

      Row r;
      r.factor = fac.kern_name;
      r.n = n;
      r.packed_bytes = kern_packed;
      r.k = k;
      r.us_scalar = *std::min_element(t_ks.begin(), t_ks.end()) * 1e6;
      r.us_vector = *std::min_element(t_kv.begin(), t_kv.end()) * 1e6;
      rows.push_back(r);

      const double sec_v = r.us_vector * 1e-6;
      table.row()
          .cell(fac.kern_name)
          .cell(static_cast<long long>(n))
          .cell(static_cast<double>(kern_packed) / (1024.0 * 1024.0), 2)
          .cell(static_cast<long long>(k))
          .cell(r.us_scalar, 1)
          .cell(r.us_vector, 1)
          .cell(r.us_scalar / (r.us_vector > 0 ? r.us_vector : 1e-300), 2)
          .cell(static_cast<double>(n) * static_cast<double>(k) / sec_v *
                    1e-6,
                2)
          .cell(solve_bytes(kern_packed, n, k) / sec_v * 1e-9, 2);
    }
  }
  table.print();
  std::printf(
      "\nOne serial thread, wavefront-interleaved batches, packed layout; "
      "'speedup' is scalar/vector per-batch time (k=1 is a no-lane "
      "control). Bitwise check vs scalar kernels: %s.\n",
      all_exact ? "exact" : "FAILED");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"kernel_micro\",\n"
        << "  \"isa\": \"" << kn::to_string(kn::dispatched_isa()) << "\",\n"
        << "  \"lane_min\": " << kn::kLaneMin << ",\n"
        << "  \"bitwise_exact\": " << (all_exact ? "true" : "false")
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const double sec_s = r.us_scalar * 1e-6;
      const double sec_v = r.us_vector * 1e-6;
      const double nk = static_cast<double>(r.n) * static_cast<double>(r.k);
      out << "    {\"factor\": \"" << r.factor << "\", \"rows\": " << r.n
          << ", \"packed_bytes\": " << r.packed_bytes << ", \"k\": " << r.k
          << ", \"us_scalar\": " << r.us_scalar
          << ", \"us_vector\": " << r.us_vector
          << ", \"rows_per_s_scalar\": " << (sec_s > 0 ? nk / sec_s : 0.0)
          << ", \"rows_per_s_vector\": " << (sec_v > 0 ? nk / sec_v : 0.0)
          << ", \"gb_per_s_scalar\": "
          << (sec_s > 0 ? solve_bytes(r.packed_bytes, r.n, r.k) / sec_s * 1e-9
                        : 0.0)
          << ", \"gb_per_s_vector\": "
          << (sec_v > 0 ? solve_bytes(r.packed_bytes, r.n, r.k) / sec_v * 1e-9
                        : 0.0)
          << ", \"lane_speedup\": "
          << r.us_scalar / (r.us_vector > 0 ? r.us_vector : 1e-300) << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_exact ? 0 : 1;
}
