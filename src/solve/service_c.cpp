// service_c.cpp — the C ABI (service_c.h) over solve::Service.
//
// Every entry point is wrapped in catch-all: no exception may cross the
// C boundary. Handles are heap-allocated wrapper structs; pdx_job holds
// a shared_ptr so the service and the C caller can release in either
// order.
#include "solve/service_c.h"

#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <string>

#include "runtime/thread_pool.hpp"
#include "solve/service.hpp"
#include "sparse/csr.hpp"

using pdx::index_t;

struct pdx_service {
  std::unique_ptr<pdx::rt::ThreadPool> pool;
  std::unique_ptr<pdx::solve::Service> svc;
};

struct pdx_job {
  pdx::solve::JobHandle h;
};

namespace {

void copy_err(char* buf, size_t cap, const std::string& msg) {
  if (!buf || cap == 0) return;
  const size_t n = std::min(cap - 1, msg.size());
  std::memcpy(buf, msg.data(), n);
  buf[n] = '\0';
}

pdx_status status_of(const pdx::solve::JobResult& r) {
  using pdx::solve::JobOutcome;
  using pdx::solve::RejectReason;
  switch (r.outcome) {
    case JobOutcome::kSolved:
      return PDX_OK;
    case JobOutcome::kExpired:
      return PDX_ERR_EXPIRED;
    case JobOutcome::kRejected:
      switch (r.reject_reason) {
        case RejectReason::kQueueFull: return PDX_ERR_QUEUE_FULL;
        case RejectReason::kShed: return PDX_ERR_SHED;
        case RejectReason::kShutdown: return PDX_ERR_SHUTDOWN;
        case RejectReason::kNone: break;
      }
      return PDX_ERR_INTERNAL;
    case JobOutcome::kFailed:
      return PDX_ERR_SOLVE_FAILED;
    case JobOutcome::kPending:
      return PDX_ERR_PENDING;
  }
  return PDX_ERR_INTERNAL;
}

/// The exception-free boundary cannot trust caller arrays: before any
/// element count is used for a copy, ptr must start at 0 and be
/// non-decreasing (which makes nnz = ptr[n] non-negative), and every
/// column index must land in [0, n). A garbage or negative ptr[n] would
/// otherwise cast to a huge size_t and read far out of bounds.
bool csr_args_valid(int64_t n, const int64_t* ptr, const int64_t* idx) {
  if (n <= 0 || ptr[0] != 0) return false;
  for (int64_t i = 0; i < n; ++i) {
    if (ptr[i + 1] < ptr[i]) return false;
  }
  const int64_t nnz = ptr[n];
  for (int64_t k = 0; k < nnz; ++k) {
    if (idx[k] < 0 || idx[k] >= n) return false;
  }
  return true;
}

pdx::sparse::Csr make_csr(int64_t n, const int64_t* ptr, const int64_t* idx,
                          const double* val) {
  pdx::sparse::Csr a;
  a.rows = static_cast<index_t>(n);
  a.cols = static_cast<index_t>(n);
  a.ptr.assign(ptr, ptr + n + 1);
  const auto nnz = static_cast<size_t>(ptr[n]);
  a.idx.assign(idx, idx + nnz);
  a.val.assign(val, val + nnz);
  return a;
}

/// Exceptions the public Service API throws for caller bugs map to
/// INVALID_ARGUMENT / UNKNOWN_MATRIX / SHUTDOWN; everything else is
/// INTERNAL.
pdx_status map_exception(char* err_buf, size_t err_cap) {
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    copy_err(err_buf, err_cap, e.what());
    return std::strstr(e.what(), "unknown matrix") != nullptr
               ? PDX_ERR_UNKNOWN_MATRIX
               : PDX_ERR_INVALID_ARGUMENT;
  } catch (const std::logic_error& e) {
    copy_err(err_buf, err_cap, e.what());
    return std::strstr(e.what(), "shut down") != nullptr ? PDX_ERR_SHUTDOWN
                                                         : PDX_ERR_INTERNAL;
  } catch (const std::exception& e) {
    copy_err(err_buf, err_cap, e.what());
    return PDX_ERR_INTERNAL;
  } catch (...) {
    copy_err(err_buf, err_cap, "unknown error");
    return PDX_ERR_INTERNAL;
  }
}

}  // namespace

extern "C" {

const char* pdx_status_name(pdx_status s) {
  switch (s) {
    case PDX_OK: return "ok";
    case PDX_ERR_INVALID_ARGUMENT: return "invalid-argument";
    case PDX_ERR_UNKNOWN_MATRIX: return "unknown-matrix";
    case PDX_ERR_QUEUE_FULL: return "queue-full";
    case PDX_ERR_SHED: return "shed";
    case PDX_ERR_EXPIRED: return "expired";
    case PDX_ERR_SHUTDOWN: return "shutdown";
    case PDX_ERR_DRAIN_TIMEOUT: return "drain-timeout";
    case PDX_ERR_SOLVE_FAILED: return "solve-failed";
    case PDX_ERR_PENDING: return "pending";
    case PDX_ERR_INTERNAL: return "internal";
    default: return "unknown-status";
  }
}

void pdx_service_options_init(pdx_service_options* o) {
  if (!o) return;
  std::memset(o, 0, sizeof(*o));
}

pdx_status pdx_service_create(const pdx_service_options* opts,
                              pdx_service** out) {
  if (!out) return PDX_ERR_INVALID_ARGUMENT;
  *out = nullptr;
  try {
    pdx::solve::ServiceOptions so;
    unsigned width = 0;
    if (opts) {
      if (opts->queue_capacity) so.queue_capacity = opts->queue_capacity;
      switch (opts->backpressure) {
        case PDX_BACKPRESSURE_BLOCK:
          so.backpressure = pdx::solve::BackpressurePolicy::kBlock;
          break;
        case PDX_BACKPRESSURE_SHED_OLDEST:
          so.backpressure = pdx::solve::BackpressurePolicy::kShedOldest;
          break;
        case PDX_BACKPRESSURE_REJECT:
          so.backpressure = pdx::solve::BackpressurePolicy::kReject;
          break;
        default:
          return PDX_ERR_INVALID_ARGUMENT;
      }
      if (opts->max_batch) so.max_batch = opts->max_batch;
      if (opts->max_live_plans) so.max_live_plans = opts->max_live_plans;
      if (opts->default_timeout_ms > 0) {
        so.default_timeout_ms = opts->default_timeout_ms;
      }
      if (opts->breaker_threshold) {
        so.breaker_threshold = opts->breaker_threshold;
      }
      if (opts->breaker_backoff_ms > 0) {
        so.breaker_backoff_ms = opts->breaker_backoff_ms;
      }
      so.solver.stall_budget = opts->stall_budget;
      width = opts->nthreads;
      if (opts->rel_tolerance > 0) so.solver.rel_tolerance = opts->rel_tolerance;
      if (opts->max_iterations) so.solver.max_iterations = opts->max_iterations;
      if (opts->max_attempts) so.solver.max_attempts = opts->max_attempts;
    }
    auto h = std::make_unique<pdx_service>();
    h->pool = std::make_unique<pdx::rt::ThreadPool>(width);
    h->svc = std::make_unique<pdx::solve::Service>(*h->pool, so);
    *out = h.release();
    return PDX_OK;
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

void pdx_service_free(pdx_service* svc) {
  if (!svc) return;
  try {
    svc->svc->shutdown(0.0);
  } catch (...) {
    // Teardown must not throw across the boundary.
  }
  delete svc;
}

pdx_status pdx_service_register_matrix(pdx_service* svc, int64_t n,
                                       const int64_t* ptr, const int64_t* idx,
                                       const double* val, uint64_t* out_id) {
  if (!svc || !ptr || !idx || !val || !out_id || n <= 0 ||
      !csr_args_valid(n, ptr, idx)) {
    return PDX_ERR_INVALID_ARGUMENT;
  }
  try {
    *out_id = svc->svc->register_matrix(make_csr(n, ptr, idx, val));
    return PDX_OK;
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

pdx_status pdx_service_update_values(pdx_service* svc, uint64_t id, int64_t n,
                                     const int64_t* ptr, const int64_t* idx,
                                     const double* val) {
  if (!svc || !ptr || !idx || !val || n <= 0 ||
      !csr_args_valid(n, ptr, idx)) {
    return PDX_ERR_INVALID_ARGUMENT;
  }
  try {
    svc->svc->update_values(id, make_csr(n, ptr, idx, val));
    return PDX_OK;
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

pdx_status pdx_service_submit(pdx_service* svc, uint64_t id, const double* b,
                              int64_t n, double timeout_ms,
                              pdx_job** out_job) {
  if (!svc || !b || !out_job || n <= 0) return PDX_ERR_INVALID_ARGUMENT;
  *out_job = nullptr;
  try {
    pdx::solve::JobHandle h = svc->svc->submit(
        id, std::span<const double>(b, static_cast<size_t>(n)), timeout_ms);
    *out_job = new pdx_job{std::move(h)};
    return PDX_OK;
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

pdx_status pdx_job_wait(pdx_job* job, double* x_out, int64_t x_len,
                        char* err_buf, size_t err_cap) {
  if (!job || !job->h) return PDX_ERR_INVALID_ARGUMENT;
  if (x_out && x_len < 0) {
    // A negative length would cast to a huge size_t below, pass the
    // too-small check, and overflow the caller's buffer.
    copy_err(err_buf, err_cap, "x_len is negative");
    return PDX_ERR_INVALID_ARGUMENT;
  }
  try {
    const pdx::solve::JobResult r = job->h->wait();
    copy_err(err_buf, err_cap, r.error);
    const pdx_status s = status_of(r);
    if (s == PDX_OK && x_out) {
      const std::span<const double> sol = job->h->solution();
      if (static_cast<size_t>(x_len) < sol.size()) {
        copy_err(err_buf, err_cap, "x_out buffer too small");
        return PDX_ERR_INVALID_ARGUMENT;
      }
      std::memcpy(x_out, sol.data(), sol.size() * sizeof(double));
    }
    return s;
  } catch (...) {
    return map_exception(err_buf, err_cap);
  }
}

pdx_status pdx_job_poll(pdx_job* job) {
  if (!job || !job->h) return PDX_ERR_INVALID_ARGUMENT;
  try {
    if (!job->h->done()) return PDX_ERR_PENDING;
    return status_of(job->h->wait());
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

int32_t pdx_job_degraded(const pdx_job* job) {
  if (!job || !job->h || !job->h->done()) return 0;
  try {
    return job->h->wait().degraded ? 1 : 0;
  } catch (...) {
    return 0;
  }
}

void pdx_job_free(pdx_job* job) { delete job; }

pdx_status pdx_service_solve(pdx_service* svc, uint64_t id, const double* b,
                             double* x, int64_t n, double timeout_ms,
                             char* err_buf, size_t err_cap) {
  if (!svc || !b || !x || n <= 0) return PDX_ERR_INVALID_ARGUMENT;
  pdx_job* job = nullptr;
  pdx_status s = pdx_service_submit(svc, id, b, n, timeout_ms, &job);
  if (s != PDX_OK) return s;
  s = pdx_job_wait(job, x, n, err_buf, err_cap);
  pdx_job_free(job);
  return s;
}

pdx_status pdx_service_shutdown(pdx_service* svc, double drain_timeout_ms) {
  if (!svc) return PDX_ERR_INVALID_ARGUMENT;
  try {
    return svc->svc->shutdown(drain_timeout_ms) ? PDX_OK
                                                : PDX_ERR_DRAIN_TIMEOUT;
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

pdx_status pdx_service_get_report(pdx_service* svc, pdx_service_report* out) {
  if (!svc || !out) return PDX_ERR_INVALID_ARGUMENT;
  try {
    const pdx::solve::ServiceReport r = svc->svc->report();
    std::memset(out, 0, sizeof(*out));
    out->submitted = r.submitted;
    out->solved = r.solved;
    out->expired = r.expired;
    out->rejected = r.rejected;
    out->failed = r.failed;
    out->shed = r.shed;
    out->degraded_jobs = r.degraded_jobs;
    out->breaker_trips = r.breaker_trips;
    out->breaker_recoveries = r.breaker_recoveries;
    out->stalls = r.stalls;
    out->cache_hits = r.cache_hits;
    out->cache_misses = r.cache_misses;
    out->cache_evictions = r.cache_evictions;
    out->value_refreshes = r.value_refreshes;
    out->queue_depth = r.queue_depth;
    out->queue_high_water = r.queue_high_water;
    out->matrices = r.matrices;
    out->live_plans = r.live_plans;
    out->latency_samples = r.latency_samples;
    out->p50_ms = r.p50_ms;
    out->p99_ms = r.p99_ms;
    out->max_ms = r.max_ms;
    return PDX_OK;
  } catch (...) {
    return map_exception(nullptr, 0);
  }
}

}  // extern "C"
