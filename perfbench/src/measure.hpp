// Measurement helpers shared by the runner and the self-test: the modeled
// summary of one run (deterministic per seed), the set-up timing, and the
// host clock.
#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

/// Host seconds since an arbitrary epoch (steady clock).
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over every commit log (length-prefixed, so a boundary shift
/// between logs changes the hash).
std::uint64_t log_hash(const std::vector<std::vector<std::uint64_t>>& logs);

/// The modeled (simulated-time) results of one leg, or pooled over the
/// legs of a run. Every field is a pure function of the workload and seed:
/// two runs agree on all of them, and a change that only speeds up the
/// simulator must leave them identical.
struct modeled {
  double tpm = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double abort_pct = 0;
  std::uint64_t responses = 0;
  std::uint64_t committed = 0;
  dbsm::sim_duration duration = 0;
  std::uint64_t log_hash = 0;

  bool operator==(const modeled&) const = default;
  std::string describe() const;
};

modeled summarize(const dbsm::core::experiment_result& r);

/// Pools legs: tpm and the abort share over the summed counts and
/// simulated time, the p50 over every leg's latency samples (`latencies`),
/// the p99 as the median over legs of each leg's p99 (a leg whose seed
/// draws a heavy tail moves it by one rank, not by its weight), and a hash
/// over the legs' commit-log hashes.
modeled pool(const std::vector<modeled>& legs,
             const dbsm::util::sample_set& latencies);

/// One set-up: construct the cluster, build and prepare the workload,
/// create every client's transaction source, install the fault scenario
/// and start the protocol stacks. Returns the host seconds this took; the
/// teardown that follows is not timed.
double time_setup(const dbsm::core::experiment_config& cfg);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Median of a non-empty sample (copies; the input order is kept).
double median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_HPP
