// Clocks, CPU and memory readings, and order statistics for the
// benchmark. Every timing the benchmark reports comes from these
// helpers, read outside the program under test.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// CPU time and peak resident set size of the process (all threads), or
/// with RUSAGE_THREAD the CPU time of the calling thread.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double max_rss_mb = 0;

  static Usage now(int who = RUSAGE_SELF) {
    rusage ru{};
    getrusage(who, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
    return u;
  }
  double cpu_s() const { return user_s + sys_s; }
};

/// The q-quantile (0..1) of `v` by the nearest-rank rule; sorts `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

/// Samples beyond the q-quantile: a percentile is reported only with at
/// least ten samples past it.
inline std::size_t beyond(std::size_t samples, double q) {
  return static_cast<std::size_t>(std::floor(static_cast<double>(samples) * (1.0 - q)));
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace perfbench
