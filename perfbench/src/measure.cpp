#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "traced.hpp"

namespace perfbench {

std::uint64_t log_hash(const std::vector<std::vector<std::uint64_t>>& logs) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(logs.size());
  for (const auto& log : logs) {
    mix(log.size());
    for (std::uint64_t id : log) mix(id);
  }
  return h;
}

std::string modeled::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "tpm=%.6f p50=%.6fms p99=%.6fms abort=%.6f%% responses=%llu "
                "committed=%llu duration=%lldns log_hash=%016llx",
                tpm, latency_p50_ms, latency_p99_ms, abort_pct,
                static_cast<unsigned long long>(responses),
                static_cast<unsigned long long>(committed),
                static_cast<long long>(duration),
                static_cast<unsigned long long>(log_hash));
  return buf;
}

modeled summarize(const dbsm::core::experiment_result& r) {
  modeled m;
  const dbsm::util::sample_set lat = r.stats.pooled_latency_ms();
  m.tpm = r.tpm();
  m.latency_p50_ms = lat.quantile(0.50);
  m.latency_p99_ms = lat.quantile(0.99);
  m.abort_pct = r.stats.abort_rate_pct();
  m.responses = r.stats.total_responses();
  m.committed = r.stats.total_committed();
  m.duration = r.duration;
  m.log_hash = log_hash(r.commit_logs);
  return m;
}

modeled pool(const std::vector<modeled>& legs,
             const dbsm::util::sample_set& latencies) {
  modeled m;
  std::vector<double> p99;
  std::vector<std::vector<std::uint64_t>> hashes(1);
  for (const modeled& l : legs) {
    p99.push_back(l.latency_p99_ms);
    m.responses += l.responses;
    m.committed += l.committed;
    m.duration += l.duration;
    hashes[0].push_back(l.log_hash);
  }
  m.latency_p50_ms = latencies.quantile(0.50);
  m.latency_p99_ms = median(p99);
  if (m.duration > 0)
    m.tpm = static_cast<double>(m.committed) /
            dbsm::to_seconds(m.duration) * 60.0;
  if (m.responses > 0)
    m.abort_pct = 100.0 * static_cast<double>(m.responses - m.committed) /
                  static_cast<double>(m.responses);
  m.log_hash = log_hash(hashes);
  return m;
}

double time_setup(const dbsm::core::experiment_config& cfg) {
  const double t0 = host_now();
  auto h = std::make_unique<harness>(cfg, nullptr);
  const double t = host_now() - t0;
  h.reset();
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
