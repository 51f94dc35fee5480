// env.hpp — bench-harness configuration from the environment.
//
//   PDX_THREADS — processor count for the parallel runs
//                 (default: min(16, available CPUs), matching the paper's
//                 16-processor Multimax).
//   PDX_REPS    — timing repetitions per configuration (default 5).
//   PDX_QUICK   — if set (non-zero), benches shrink problem sizes for CI.
#pragma once

#include <string>

namespace pdx::bench {

/// Parse a positive integer environment variable, or `fallback`.
int env_int(const char* name, int fallback);

/// Processor count used by all paper-reproduction benches.
unsigned default_procs();

/// Timing repetitions.
int default_reps();

/// Whether to run in quick (CI) mode.
bool quick_mode();

/// One-line description of the bench environment (procs, mode).
std::string environment_banner(const std::string& bench_name);

/// The `machine` block of a bench artifact, as a JSON object: online
/// logical CPUs (`nproc`), the CPUs in this process's affinity mask
/// (`affinity_cpus`), the cgroup v2 quota from /sys/fs/cgroup/cpu.max
/// verbatim ("max 100000" = unlimited; null where unreadable), and the
/// dispatched kernel `isa`. ci/perf_gate.py derives the usable CPU count
/// from it.
std::string machine_json(const char* isa);

}  // namespace pdx::bench
