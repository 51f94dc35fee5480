// service_bench — end-to-end benchmark of the multi-tenant solve service.
//
// Drives solve::Service the way the repository's own service clients do
// and reports what their users see: median request latency, solved jobs
// per second, and the set-up cost a cold service pays before it answers
// its first jobs. A request is what the client waits for as a whole: a
// burst, a session or a step. Per-job latency would reward a slower
// client: with submissions no longer held up by the service (see below),
// a burst's jobs queue longer while the burst is answered sooner. Every solved job is checked by recomputing ||b - A x|| /
// ||b|| here, outside the library, and the service's terminal accounting
// must be exact.
//
// Each workload copies the traffic of one client in the repository, at
// that client's full (non-quick) size. The seed draws the right-hand
// sides (and timestep's initial field); the operators, sizes and schedule
// are the client's.
//
//   burst     bench/service_load.cpp, phase 2 ("open-loop burst"): three
//             5-point tenants on 48x48, 40x40 and 32x32 grids; 240 jobs
//             submitted round-robin back to back, then all waited;
//             queue_capacity = 240 + 8, other ServiceOptions default
//             (max_batch 32). Repeated for the whole run. Exercises
//             cross-tenant strip packing and the batched solve path.
//   batch     examples/batch_server.cpp: tenants A (5-point 48x48) and B
//             (40x40); queue_capacity 128, kBlock, max_batch 16,
//             rel_tolerance 1e-10; 5 waves of 10 jobs, wave w job j to A
//             when (w + j) is even; all waited; then update_values on A
//             (val *= 1 + 0.1 ((k mod 7) / 7)) and one more job on A.
//             Repeated for the whole run, A's values alternating between
//             the plain and the scaled operator, so every session runs a
//             value-only plan refresh.
//   timestep  examples/timestep_server.cpp: 5-point 64x64 base operator,
//             dt = 0.35, step s sets A = I + dt K(dt s) with stored entry
//             k of K(t) = base_k (1 + 0.25 sin(0.0007 k + t)), through
//             update_values, then one Service::solve with the previous
//             solution as the right-hand side (backward Euler). Latency
//             is per step (update_values + solve). Exercises the
//             value-only refactor and plan refresh on every step. The
//             example's assemble() drops the I + dt of the A(t) its own
//             comment states; solved as written, every step multiplies u
//             by up to ~1/lambda_min(K) (about 200 at 64x64) and the
//             field overflows to NaN within a 5-second run, so the
//             benchmark assembles the stated operator.
//
// Pool widths. service_load measures widths 1, 2 and the hardware width;
// the examples use the hardware width, which would make the traffic
// depend on the machine and, with the service's scheduler thread and the
// client thread, oversubscribe a 4-CPU host. burst and timestep run at
// width 2: the plans calibrate (strategy race, process-wide tuning
// cache, parallel executors raced against serial) and the batched
// regions run on two threads. batch runs at width 1, service_load's
// other row, where calibration is skipped: it is the workload that
// bypasses that machinery. Measured over 5 seeds, 10 s runs, on a 4-vCPU
// virtual machine: batch's spread (IQR / median) was 0.20-0.24 at width
// 2 and 0.06-0.08 at width 1; burst's was 0.13-0.21 at either width.
//
// submit() takes the tenant's mutex, which the scheduler holds for the
// whole strip, so a client submitting to the tenant being solved waits
// for the solve: burst and batch runs pack about one job per strip, and
// their timings follow thread hand-offs, which is where their spread
// comes from.
//
// --trace 1 runs the same traffic, records spans around every call into
// the library (queue wait, execution; bursts, sessions and steps as
// parents), then replays the workload's own matrices and right-hand sides
// directly against the layers under the service and reports per-layer
// figures. Which end-to-end figure each should move, and where:
//
//   queue_wait_ms, submit_us      p50 on burst and batch (admission, queue)
//   exec_ms, jobs_per_strip       p50 and jobs/s on burst and batch
//   plan_build_ms                 setup_s on every workload
//   refactor_ms                   p50 and jobs/s on timestep and batch
//   krylov_iters, drain_ms_per_job,
//   precond_apply_us, spmv_us     p50 and jobs/s everywhere (solve path)
//
// The spans are written to --trace-file as a JSON array.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/service.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv.hpp"

namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using pdx::index_t;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------------ inputs

/// SplitMix64: the benchmark's own generator, so its inputs depend on the
/// seed alone and never on library code.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
};

/// The 5-point Laplacian on a g x g grid (4 on the diagonal, -1 to each
/// neighbour, Dirichlet boundary), columns ascending: the operator the
/// repository's service clients build with gen::five_point, built here so
/// the inputs never depend on library code.
sp::Csr five_point(int g) {
  const index_t n = static_cast<index_t>(g) * g;
  sp::Csr a(n, n);
  for (int y = 0; y < g; ++y) {
    for (int x = 0; x < g; ++x) {
      const index_t r = static_cast<index_t>(y) * g + x;
      const auto add = [&](index_t c, double v) {
        a.idx.push_back(c);
        a.val.push_back(v);
      };
      if (y > 0) add(r - g, -1.0);
      if (x > 0) add(r - 1, -1.0);
      add(r, 4.0);
      if (x + 1 < g) add(r + 1, -1.0);
      if (y + 1 < g) add(r + g, -1.0);
      a.ptr[static_cast<std::size_t>(r) + 1] =
          static_cast<index_t>(a.idx.size());
    }
  }
  return a;
}

std::vector<double> random_vector(index_t n, Rng& rng, double lo, double hi) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// ||b - A x||_2 / ||b||_2, computed independently of the library.
double relative_residual(const sp::Csr& a, std::span<const double> b,
                         std::span<const double> x) {
  double rr = 0.0, bb = 0.0;
  for (index_t r = 0; r < a.rows; ++r) {
    double ax = 0.0;
    for (index_t p = a.row_begin(r); p < a.row_end(r); ++p) {
      ax += a.val[static_cast<std::size_t>(p)] *
            x[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(p)])];
    }
    const double d = b[static_cast<std::size_t>(r)] - ax;
    rr += d * d;
    bb += b[static_cast<std::size_t>(r)] * b[static_cast<std::size_t>(r)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

/// The solver stops at a 1e-10 relative residual; the check allows the
/// drift between the recurrence and the true residual, nothing more.
constexpr double kResidualLimit = 1e-8;

// --------------------------------------------------------------- workloads

enum class Kind { kBurst, kBatch, kTimestep };

/// One workload's traffic, copied from the client named in the header.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::vector<int> grids;  // tenants: 5-point on g x g
  std::size_t queue_capacity;
  std::size_t max_batch;
  unsigned width;  // pool width, see the header comment
};

const WorkloadSpec kWorkloads[] = {
    {"burst", Kind::kBurst, {48, 40, 32}, 240 + 8, 32, 2},
    {"batch", Kind::kBatch, {48, 40}, 128, 16, 1},
    {"timestep", Kind::kTimestep, {64}, 256, 32, 2},
};

constexpr int kBurstJobs = 240;                 // service_load jobs_burst
constexpr int kWaves = 5, kPerWave = 10;        // batch_server
constexpr double kDt = 0.35;                    // timestep_server
// Chosen here, not taken from a client: set-ups timed per run (their
// median is setup_s; 9 keeps its spread across seeds near 0.1), and the
// per-tenant pool of seeded right-hand sides jobs draw from.
constexpr int kSetups = 9;
constexpr int kRhsPerTenant = 64;

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Tenant {
  sp::Csr a;
  std::vector<std::vector<double>> rhs;  // pool drawn from by jobs
  solve::MatrixId id = 0;
};

std::vector<Tenant> make_tenants(const WorkloadSpec& w, Rng& rng) {
  std::vector<Tenant> ts;
  for (int g : w.grids) {
    Tenant t;
    t.a = five_point(g);
    for (int i = 0; i < kRhsPerTenant; ++i) {
      t.rhs.push_back(random_vector(t.a.rows, rng, -1.0, 1.0));
    }
    ts.push_back(std::move(t));
  }
  return ts;
}

solve::ServiceOptions service_options(const WorkloadSpec& w) {
  solve::ServiceOptions o;
  o.queue_capacity = w.queue_capacity;
  o.backpressure = solve::BackpressurePolicy::kBlock;
  o.max_batch = w.max_batch;
  o.solver.rel_tolerance = 1e-10;
  return o;
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  std::uint64_t id;
  std::uint64_t parent;
  double start_us;
  double end_us;
};

/// In-memory span log; written out once the run ends.
class Trace {
 public:
  Trace(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}
  bool on() const { return on_; }
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end) {
    if (!on_) return 0;
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({name, id, parent, us(start), us(end)});
    return id;
  }
  /// Close a span opened with start == end once its children are in.
  void finish(std::uint64_t id, Clock::time_point end) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id - 1].end_us = us(end);
  }
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> v;
    for (const Span& s : spans_) {
      if (s.name == name) v.push_back((s.end_us - s.start_us) / 1e3);
    }
    return v;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.start_us,
                   s.end_us, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  bool on_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ------------------------------------------------------------- run state

/// What the clients observed, shared by every workload.
struct Observed {
  // One per request: a burst, a session or a step, each from its first
  // call into the service to its last answer. A client of these workloads
  // waits for the whole request, so that is its latency; per-job times
  // are in the trace (queue_wait_ms, exec_ms).
  std::vector<double> latency_ms;
  std::vector<double> submit_us;  // duration of each submit() call
  std::uint64_t attempted = 0;
  std::uint64_t solved = 0;
  std::uint64_t failed = 0;      // not solved, or solved wrong
  std::uint64_t iterations = 0;  // Krylov iterations of solved jobs
  double worst_residual = 0.0;
  std::string first_error;
  double busy_ms = 0.0;  // sum of latency_ms

  void request(double ms) {
    latency_ms.push_back(ms);
    busy_ms += ms;
  }

  void note(const solve::JobResult& r, std::span<const double> x,
            const sp::Csr& a, std::span<const double> b) {
    bool ok = r.outcome == solve::JobOutcome::kSolved;
    double res = 0.0;
    if (ok) {
      res = relative_residual(a, b, x);
      ok = std::isfinite(res) && res <= kResidualLimit;
    }
    ++attempted;
    if (ok) {
      ++solved;
      iterations += static_cast<std::uint64_t>(r.report.iterations);
      worst_residual = std::max(worst_residual, res);
    } else {
      ++failed;
      if (first_error.empty()) {
        first_error = r.outcome == solve::JobOutcome::kSolved
                          ? "residual " + std::to_string(res)
                          : std::string(solve::to_string(r.outcome)) + ": " +
                                r.error;
      }
    }
  }
};

/// Record one job and its service-side phases as children of `parent`.
/// The service stamps submitted_at inside submit(), so t_sub (taken just
/// before the call) anchors the queue and execution spans.
void job_spans(Trace& tr, std::uint64_t parent, Clock::time_point t_sub,
               const solve::JobResult& r) {
  if (!tr.on()) return;
  const std::uint64_t job =
      tr.add("job", parent, t_sub, t_sub + from_ms(r.total_ms));
  const Clock::time_point deq = t_sub + from_ms(r.queue_ms);
  tr.add("queue", job, t_sub, deq);
  tr.add("exec", job, deq, t_sub + from_ms(r.total_ms));
}

/// Cold start: pool, service, registration and the first solve per tenant
/// (plan build, factorization, calibration race). The process-wide tuning
/// cache is emptied first, so a repeated set-up races again instead of
/// reusing the winners the previous one stored. Returns seconds.
double set_up(const WorkloadSpec& w, std::vector<Tenant>& tenants,
              std::unique_ptr<rt::ThreadPool>& pool,
              std::unique_ptr<solve::Service>& svc) {
  pdx::core::tuning_cache().clear();
  const Clock::time_point start = Clock::now();
  pool = std::make_unique<rt::ThreadPool>(w.width);
  svc = std::make_unique<solve::Service>(*pool, service_options(w));
  for (Tenant& t : tenants) t.id = svc->register_matrix(t.a);
  for (Tenant& t : tenants) {
    std::vector<double> x(static_cast<std::size_t>(t.a.rows), 0.0);
    const solve::JobResult r = svc->solve(t.id, t.rhs[0], x);
    if (r.outcome != solve::JobOutcome::kSolved ||
        relative_residual(t.a, t.rhs[0], x) > kResidualLimit) {
      throw std::runtime_error("set-up solve failed: " + r.error);
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Untimed warm-up after set-up: a few jobs per tenant so any lazy work
/// the first applications still do (races, first-touch) is over.
void warm_up(solve::Service& svc, const std::vector<Tenant>& tenants) {
  for (const Tenant& t : tenants) {
    std::vector<solve::JobHandle> hs;
    for (int i = 0; i < 8; ++i) hs.push_back(svc.submit(t.id, t.rhs[i]));
    for (auto& h : hs) {
      if (h->wait().outcome != solve::JobOutcome::kSolved) {
        throw std::runtime_error("warm-up solve failed");
      }
    }
  }
}

struct Sent {
  solve::JobHandle job;
  std::size_t tenant;
  std::size_t rhs;
  Clock::time_point t_sub;
};

/// Submit one job, timing the call.
Sent send(solve::Service& svc, const std::vector<Tenant>& tenants,
          std::size_t tenant, Rng& rng, Observed& obs) {
  const auto k = static_cast<std::size_t>(rng.next() % kRhsPerTenant);
  const Clock::time_point t_sub = Clock::now();
  solve::JobHandle h = svc.submit(tenants[tenant].id, tenants[tenant].rhs[k]);
  obs.submit_us.push_back(ms_between(t_sub, Clock::now()) * 1e3);
  return {std::move(h), tenant, k, t_sub};
}

/// Wait for every job in `sent`; returns when the last answer is back.
Clock::time_point wait_all(const std::vector<Sent>& sent,
                           std::vector<solve::JobResult>& rs) {
  rs.clear();
  for (const Sent& s : sent) rs.push_back(s.job->wait());
  return Clock::now();
}

/// Check and record every job in `sent` against its tenant's operator.
void note_all(const std::vector<Sent>& sent,
              const std::vector<solve::JobResult>& rs,
              const std::vector<Tenant>& tenants, std::uint64_t parent,
              Trace& tr, Observed& obs) {
  for (std::size_t j = 0; j < sent.size(); ++j) {
    const Tenant& t = tenants[sent[j].tenant];
    obs.note(rs[j], sent[j].job->solution(), t.a, t.rhs[sent[j].rhs]);
    job_spans(tr, parent, sent[j].t_sub, rs[j]);
  }
}

// ------------------------------------------------------------------- burst

void run_burst(solve::Service& svc, std::vector<Tenant>& tenants, Rng& rng,
               double seconds, Trace& tr, Observed& obs) {
  std::vector<Sent> sent;
  std::vector<solve::JobResult> rs;
  const Clock::time_point stop = Clock::now() + from_ms(seconds * 1e3);
  while (Clock::now() < stop) {
    sent.clear();
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kBurstJobs; ++j) {
      sent.push_back(send(svc, tenants,
                          static_cast<std::size_t>(j) % tenants.size(), rng,
                          obs));
    }
    const Clock::time_point t1 = wait_all(sent, rs);
    obs.request(ms_between(t0, t1));
    note_all(sent, rs, tenants, tr.add("burst", 0, t0, t1), tr, obs);
  }
}

// ------------------------------------------------------------------- batch

void run_batch(solve::Service& svc, std::vector<Tenant>& tenants, Rng& rng,
               double seconds, Trace& tr, Observed& obs) {
  // batch_server's operator update on A, and the plain operator to
  // alternate back to.
  const sp::Csr plain = tenants[0].a;
  sp::Csr scaled = plain;
  for (std::size_t k = 0; k < scaled.val.size(); ++k) {
    scaled.val[k] *= 1.0 + 0.1 * (static_cast<double>(k % 7) / 7.0);
  }
  std::vector<Sent> sent;
  std::vector<solve::JobResult> rs;
  const Clock::time_point stop = Clock::now() + from_ms(seconds * 1e3);
  for (int session = 0; Clock::now() < stop; ++session) {
    sent.clear();
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t sid = tr.add("session", 0, t0, t0);
    for (int w = 0; w < kWaves; ++w) {
      for (int j = 0; j < kPerWave; ++j) {
        sent.push_back(send(svc, tenants, (w + j) % 2 == 0 ? 0 : 1, rng, obs));
      }
    }
    Clock::time_point t1 = wait_all(sent, rs);
    // The residual checks between the two halves are not service time.
    double session_ms = ms_between(t0, t1);
    note_all(sent, rs, tenants, sid, tr, obs);

    tenants[0].a = session % 2 == 0 ? scaled : plain;
    sent.clear();
    const Clock::time_point t2 = Clock::now();
    svc.update_values(tenants[0].id, tenants[0].a);
    tr.add("update", sid, t2, Clock::now());
    sent.push_back(send(svc, tenants, 0, rng, obs));
    t1 = wait_all(sent, rs);
    session_ms += ms_between(t2, t1);
    obs.request(session_ms);
    note_all(sent, rs, tenants, sid, tr, obs);
    tr.finish(sid, t1);
  }
}

// ---------------------------------------------------------------- timestep

void run_timestep(solve::Service& svc, std::vector<Tenant>& tenants, Rng& rng,
                  double seconds, Trace& tr, Observed& obs) {
  Tenant& t = tenants[0];
  const sp::Csr base = t.a;
  const auto n = static_cast<std::size_t>(t.a.rows);
  // timestep_server starts from u = 1; the seed perturbs it.
  std::vector<double> u = random_vector(t.a.rows, rng, 0.5, 1.5);

  const Clock::time_point stop = Clock::now() + from_ms(seconds * 1e3);
  for (int step = 1; Clock::now() < stop; ++step) {
    for (index_t r = 0; r < t.a.rows; ++r) {
      for (index_t p = t.a.row_begin(r); p < t.a.row_end(r); ++p) {
        const auto k = static_cast<std::size_t>(p);
        t.a.val[k] =
            (t.a.idx[k] == r ? 1.0 : 0.0) +
            kDt * base.val[k] *
                (1.0 + 0.25 * std::sin(0.0007 * static_cast<double>(k) +
                                       kDt * step));
      }
    }
    // Service::solve is submit + wait; they are called apart here so the
    // submit is timed like every other workload's.
    const Clock::time_point t0 = Clock::now();
    svc.update_values(t.id, t.a);
    const Clock::time_point t_sub = Clock::now();
    const solve::JobHandle job = svc.submit(t.id, u);
    obs.submit_us.push_back(ms_between(t_sub, Clock::now()) * 1e3);
    const solve::JobResult r = job->wait();
    const Clock::time_point t1 = Clock::now();
    obs.request(ms_between(t0, t1));
    obs.note(r, job->solution(), t.a, u);
    if (tr.on()) {
      const std::uint64_t sid = tr.add("step", 0, t0, t1);
      tr.add("update", sid, t0, t_sub);
      job_spans(tr, sid, t_sub, r);
    }
    if (job->solution().size() == n) {
      std::copy(job->solution().begin(), job->solution().end(), u.begin());
    }
  }
}

// ------------------------------------------------------------------ replay

struct Replay {
  std::vector<double> build_ms, drain_ms_per_job, refactor_ms, precond_us,
      spmv_us;
};

/// Replay each tenant's operator and right-hand sides directly against
/// the layers under the service: plan build (BatchDriver construction),
/// a strip drain of the size the service packed, the value-only
/// refactor, one preconditioner application, and one SpMV.
Replay replay_layers(rt::ThreadPool& pool, const WorkloadSpec& w,
                     const std::vector<Tenant>& tenants, std::size_t strip,
                     Trace& tr) {
  Replay out;
  const solve::BatchDriverOptions opts = service_options(w).solver;
  for (const Tenant& t : tenants) {
    const auto n = static_cast<std::size_t>(t.a.rows);
    const Clock::time_point t_replay = Clock::now();
    const std::uint64_t root = tr.add("replay", 0, t_replay, t_replay);
    std::unique_ptr<solve::BatchDriver> d;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point s = Clock::now();
      d = std::make_unique<solve::BatchDriver>(pool, t.a, opts);
      const Clock::time_point e = Clock::now();
      tr.add("replay.build", root, s, e);
      out.build_ms.push_back(ms_between(s, e));
    }
    std::vector<std::vector<double>> xs(strip, std::vector<double>(n));
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t j = 0; j < strip; ++j) {
        std::fill(xs[j].begin(), xs[j].end(), 0.0);
        d->enqueue(t.rhs[(rep * strip + j) % t.rhs.size()], xs[j]);
      }
      const Clock::time_point s = Clock::now();
      d->drain();
      const Clock::time_point e = Clock::now();
      tr.add("replay.drain", root, s, e);
      out.drain_ms_per_job.push_back(ms_between(s, e) /
                                     static_cast<double>(strip));
    }
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point s = Clock::now();
      d->refactor(t.a);
      const Clock::time_point e = Clock::now();
      tr.add("replay.refactor", root, s, e);
      out.refactor_ms.push_back(ms_between(s, e));
    }
    std::vector<double> z(n);
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point s = Clock::now();
      d->preconditioner().apply(t.rhs[i % t.rhs.size()], z);
      const Clock::time_point e = Clock::now();
      if (i % 10 == 0) tr.add("replay.precond", root, s, e);
      out.precond_us.push_back(ms_between(s, e) * 1e3);
    }
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point s = Clock::now();
      sp::spmv(t.a, t.rhs[i % t.rhs.size()], z);
      const Clock::time_point e = Clock::now();
      if (i % 10 == 0) tr.add("replay.spmv", root, s, e);
      out.spmv_us.push_back(ms_between(s, e) * 1e3);
    }
    tr.finish(root, Clock::now());
  }
  return out;
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--trace-file") {
      a.trace_file = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_metric(std::string& out, const char* name, double value,
                  const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

int run(const Args& args) {
  const WorkloadSpec* w = find_workload(args.workload);
  if (!w) throw std::invalid_argument("unknown workload " + args.workload);

  Rng rng{args.seed};
  std::vector<Tenant> tenants = make_tenants(*w, rng);

  // Several cold set-ups in this process; the last one serves the run.
  std::unique_ptr<rt::ThreadPool> pool;
  std::unique_ptr<solve::Service> svc;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    if (svc) svc->shutdown(10000.0);
    svc.reset();
    pool.reset();
    setups.push_back(set_up(*w, tenants, pool, svc));
  }
  const double setup_s = quantile(setups, 0.5);
  warm_up(*svc, tenants);

  Trace tr(args.trace, Clock::now());
  Observed obs;
  const solve::ServiceReport before = svc->report();
  switch (w->kind) {
    case Kind::kBurst:
      run_burst(*svc, tenants, rng, args.seconds, tr, obs);
      break;
    case Kind::kBatch:
      run_batch(*svc, tenants, rng, args.seconds, tr, obs);
      break;
    case Kind::kTimestep:
      run_timestep(*svc, tenants, rng, args.seconds, tr, obs);
      break;
  }
  const solve::ServiceReport after = svc->report();
  const bool drained = svc->shutdown(10000.0);
  const solve::ServiceReport fin = svc->report();

  // Exact accounting: every job the service ever accepted is terminal,
  // and the window's jobs are exactly the ones the clients saw.
  const bool accounted =
      drained &&
      fin.submitted == fin.solved + fin.expired + fin.rejected + fin.failed &&
      after.submitted - before.submitted == obs.attempted;
  const bool correct = accounted && obs.failed == 0 && obs.solved > 0;

  std::fprintf(stderr,
               "%s: %llu jobs, %llu solved, %llu failed, worst residual "
               "%.2e, accounting %s%s%s\n",
               w->name, static_cast<unsigned long long>(obs.attempted),
               static_cast<unsigned long long>(obs.solved),
               static_cast<unsigned long long>(obs.failed),
               obs.worst_residual, accounted ? "exact" : "BROKEN",
               obs.first_error.empty() ? "" : "; first error: ",
               obs.first_error.c_str());
  // Tails are printed, not reported: on a shared virtual machine their
  // run-to-run spread is set by host scheduling, not by the service.
  std::fprintf(stderr,
               "%s: latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms; set-ups "
               "(s):",
               w->name, quantile(obs.latency_ms, 0.5),
               quantile(obs.latency_ms, 0.95), quantile(obs.latency_ms, 0.99));
  for (double s : setups) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "; strategies:");
  for (const Tenant& t : tenants) {
    const solve::MatrixInfo mi = svc->matrix_info(t.id);
    std::fprintf(stderr, " %s/%s", pdx::core::to_string(mi.strategy),
                 sp::to_string(mi.layout));
  }
  std::fprintf(stderr, "\n");

  std::string metrics;
  if (!args.trace) {
    print_metric(metrics, "p50_ms", quantile(obs.latency_ms, 0.5), "ms");
    print_metric(metrics, "jobs_per_s",
                 static_cast<double>(obs.solved) / (obs.busy_ms / 1e3), "1/s");
    print_metric(metrics, "setup_s", setup_s, "s");
  } else {
    const std::uint64_t strips = (after.cache_hits - before.cache_hits) +
                                 (after.cache_misses - before.cache_misses);
    const double per_strip =
        strips ? static_cast<double>(after.solved - before.solved) /
                     static_cast<double>(strips)
               : 0.0;
    const std::size_t strip = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(per_strip)), 1, w->max_batch);
    const Replay rp = replay_layers(*pool, *w, tenants, strip, tr);
    print_metric(metrics, "queue_wait_ms",
                 quantile(tr.durations_ms("queue"), 0.5), "ms");
    print_metric(metrics, "exec_ms", quantile(tr.durations_ms("exec"), 0.5),
                 "ms");
    print_metric(metrics, "submit_us", quantile(obs.submit_us, 0.5), "us");
    print_metric(metrics, "jobs_per_strip", per_strip, "count");
    print_metric(metrics, "krylov_iters",
                 obs.solved ? static_cast<double>(obs.iterations) /
                                  static_cast<double>(obs.solved)
                            : 0.0,
                 "count");
    print_metric(metrics, "drain_ms_per_job",
                 quantile(rp.drain_ms_per_job, 0.5), "ms");
    print_metric(metrics, "plan_build_ms", quantile(rp.build_ms, 0.5), "ms");
    print_metric(metrics, "refactor_ms", quantile(rp.refactor_ms, 0.5), "ms");
    print_metric(metrics, "precond_apply_us", quantile(rp.precond_us, 0.5),
                 "us");
    print_metric(metrics, "spmv_us", quantile(rp.spmv_us, 0.5), "us");
    if (!args.trace_file.empty() && !tr.write(args.trace_file)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_file.c_str());
      return 1;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(obs.attempted),
      static_cast<unsigned long long>(obs.failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_bench: %s\n", e.what());
    return 1;
  }
}
