#include "common/thread_util.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/spinlock.hpp"
#include "common/topology.hpp"
#include "obs/metrics.hpp"

namespace quecc::common {

unsigned hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

bool pin_self_to(unsigned cpu) noexcept {
#if defined(__linux__)
  const topology& topo = system_topology();
  const std::vector<unsigned> cpus = topo.flatten();
  unsigned target = cpu;
  if (cpus.empty()) {
    target = cpu % hardware_threads();
  } else if (cpu >= cpus.size()) {
    // Wrap through the real cpu list instead of raw modulo arithmetic on
    // possibly-sparse OS cpu ids; count + warn once per process so
    // oversubscribed --pin-threads runs are visible.
    target = cpus[cpu % cpus.size()];
    static const obs::counter wrapped("thread.pin_wrapped_total");
    wrapped.inc();
    static std::atomic<bool> warned{false};
    // relaxed: the flag guards only this fprintf — no other memory is
    // published through it, and a duplicate warning under a lost race
    // would be harmless anyway (exchange already prevents that).
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "quecc: pin_self_to(%u) wraps (%zu cpus); workers are "
                   "oversubscribed (see thread.pin_wrapped_total)\n",
                   cpu, cpus.size());
    }
  } else if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
    // In-range index naming a cpu hole (sparse numbering): remap through
    // the node-major list rather than failing the affinity call.
    target = cpus[cpu % cpus.size()];
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(target, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool unpin_self() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu : system_topology().flatten()) {
    if (cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;
#endif
}

void name_self(const std::string& name) noexcept {
#if defined(__linux__)
  // Linux limits thread names to 15 chars + NUL.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

void yield_cpu() noexcept { std::this_thread::yield(); }

void spin_for_micros(std::uint32_t micros) noexcept {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) cpu_pause();
}

void backoff::yield_now() noexcept { yield_cpu(); }

}  // namespace quecc::common
