// Job-level parallelism for the campaign driver: a one-shot parallel_for
// and the thread-count resolution behind it.
//
//  - Determinism: parallel_for(n, threads, fn) promises only that fn(i) runs
//    exactly once for every i; callers write results into slot i of a
//    pre-sized vector (or serialise their own output), so the outcome never
//    depends on scheduling. Indices are handed out in increasing order from
//    one atomic counter.
//  - One shot: the threads are spawned per call and joined before it
//    returns. A campaign issues one call per run, so there is nothing to
//    reuse. The calling thread works the same index stream as the others.
//
// Thread-count resolution: an explicit request wins; otherwise the TZ_THREADS
// environment variable; otherwise the *effective* CPU count — the minimum of
// hardware_concurrency, the process affinity mask, and the container's
// cgroup CPU quota. hardware_concurrency() alone reports the host's core
// count even inside a CPU-limited container (cgroup v2 `cpu.max`), which
// made the default oversubscribe badly in the bench container.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/thread_safety.hpp"

namespace tz {

namespace detail {

/// Parse one cgroup CPU bandwidth limit into a whole-CPU ceiling.
/// cgroup v2 `cpu.max` is "<quota> <period>" where quota is "max" (no limit)
/// or microseconds per period; cgroup v1 splits the same two numbers across
/// cpu.cfs_quota_us (-1 = no limit) and cpu.cfs_period_us. Returns
/// ceil(quota/period) clamped to >= 1, or 0 when the text describes no
/// limit / is malformed (caller ignores the source).
inline std::size_t parse_cpu_quota(std::string_view quota,
                                   std::string_view period) {
  auto parse_ll = [](std::string_view s, long long& out) {
    char buf[32];
    const std::size_t n = s.copy(buf, sizeof buf - 1);
    buf[n] = '\0';
    char* end = nullptr;
    out = std::strtoll(buf, &end, 10);
    return end != buf;
  };
  // Trim trailing newline/space the kernel files carry.
  auto trim = [](std::string_view s) {
    while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) {
      s.remove_suffix(1);
    }
    return s;
  };
  quota = trim(quota);
  period = trim(period);
  if (quota.empty() || quota == "max") return 0;
  long long q = 0, p = 0;
  if (!parse_ll(quota, q) || !parse_ll(period, p)) return 0;
  if (q <= 0 || p <= 0) return 0;  // -1 quota = unlimited (v1)
  return static_cast<std::size_t>((q + p - 1) / p);
}

/// Split a `cpu.max`-style "<quota> <period>" line into the two fields and
/// delegate to parse_cpu_quota. 0 = no limit.
inline std::size_t parse_cpu_max_line(std::string_view line) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return 0;
  return parse_cpu_quota(line.substr(0, sp), line.substr(sp + 1));
}

inline bool read_small_file(const char* path, char* buf, std::size_t cap,
                            std::string_view& out) {
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) return false;
  const std::size_t n = std::fread(buf, 1, cap - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  out = std::string_view(buf, n);
  return n > 0;
}

}  // namespace detail

/// CPUs this process may actually use: the minimum of
/// std::thread::hardware_concurrency(), the sched_getaffinity mask, and the
/// cgroup v2/v1 CPU quota (ceil(quota/period)). Cached after the first call
/// (the limits are fixed for the life of a container). Always >= 1.
inline std::size_t effective_cpu_count() {
  static const std::size_t cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    std::size_t n = hw > 0 ? hw : 1;
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      const int c = CPU_COUNT(&mask);
      if (c > 0 && static_cast<std::size_t>(c) < n) {
        n = static_cast<std::size_t>(c);
      }
    }
    char buf[64];
    char buf2[64];
    std::string_view text, text2;
    // cgroup v2 unified hierarchy.
    if (detail::read_small_file("/sys/fs/cgroup/cpu.max", buf, sizeof buf,
                                text)) {
      const std::size_t q = detail::parse_cpu_max_line(text);
      if (q > 0 && q < n) n = q;
    } else if (detail::read_small_file("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                                       buf, sizeof buf, text) &&
               detail::read_small_file("/sys/fs/cgroup/cpu/cpu.cfs_period_us",
                                       buf2, sizeof buf2, text2)) {
      const std::size_t q = detail::parse_cpu_quota(text, text2);
      if (q > 0 && q < n) n = q;
    }
#endif
    return n > 0 ? n : std::size_t{1};
  }();
  return cached;
}

/// Threads to use for a flow phase: `requested` if nonzero, else TZ_THREADS
/// if set to a positive integer, else the effective CPU count (container
/// quota / affinity aware, min 1).
inline std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("TZ_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  return effective_cpu_count();
}

/// Run fn(i) for every i in [0, n) on min(resolve_threads(threads), n)
/// threads, the caller included, and return once all have finished. fn must
/// be safe to call concurrently. The first exception thrown by any fn (or
/// by starting a thread) is rethrown here after every index has run.
inline void parallel_for(std::size_t n, std::size_t threads,
                         const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  Mutex error_mu;
  std::exception_ptr error;
  const auto record = [&](std::exception_ptr e) {
    MutexLock lk(error_mu);
    if (!error) error = std::move(e);
  };
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        record(std::current_exception());
      }
    }
  };
  const std::size_t spawn = std::min(resolve_threads(threads), n);
  std::vector<std::thread> workers;
  workers.reserve(spawn);
  try {
    for (std::size_t w = 1; w < spawn; ++w) workers.emplace_back(work);
  } catch (...) {
    // The threads already started and the caller still drain every index.
    record(std::current_exception());
  }
  work();
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace tz
