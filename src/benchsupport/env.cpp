#include "benchsupport/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "runtime/affinity.hpp"

namespace pdx::bench {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || parsed <= 0) return fallback;
  return static_cast<int>(parsed);
}

unsigned default_procs() {
  const unsigned avail = rt::allowed_cpus();
  const unsigned paper = std::min(16u, avail);
  return static_cast<unsigned>(env_int("PDX_THREADS", static_cast<int>(paper)));
}

int default_reps() { return env_int("PDX_REPS", 3); }

bool quick_mode() { return env_int("PDX_QUICK", 0) != 0; }

std::string environment_banner(const std::string& bench_name) {
  std::ostringstream os;
  os << "# " << bench_name << " | procs=" << default_procs()
     << " reps=" << default_reps() << (quick_mode() ? " (quick mode)" : "");
  return os.str();
}

std::string machine_json(const char* isa) {
  std::string cpu_max;
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::getline(in, cpu_max);
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"affinity_cpus\": " << rt::allowed_cpus()
     << ", \"cgroup_cpu_max\": "
     << (cpu_max.empty() ? "null" : "\"" + cpu_max + "\"")
     << ", \"isa\": \"" << isa << "\"}";
  return os.str();
}

}  // namespace pdx::bench
