// The benchmark's workloads: each is a full core::experiment_config (a
// closed-loop client population over a replicated database, plus an
// optional fault scenario) built from a seed, and the correctness gate
// every run of it must pass.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

struct workload_spec {
  std::string name;
  /// The configuration of leg 0; leg i differs only in its seed.
  dbsm::core::experiment_config cfg;
  /// Independent experiments (legs) per measurement. Their results are
  /// pooled, so one run samples several crashes, bursts and ramp-ups
  /// instead of one, and its modeled metrics steady across seeds.
  unsigned legs = 1;
  /// Read path is read::mode::fast: the gate additionally requires local
  /// fast reads and no read-only broadcast.
  bool fast_reads = false;
  /// Number of sites the gate requires to have rejoined after a crash.
  std::uint64_t expected_rejoins = 0;
};

/// Every workload defined here. BENCHMARK.json lists the first two.
const std::vector<std::string>& workload_names();

/// Builds `name` at `seed`. Throws std::invalid_argument on an unknown
/// name.
workload_spec make_workload(const std::string& name, std::uint64_t seed);

/// The configuration of leg `i` of `w`: its seed is derived from the
/// workload seed and the leg index (leg 0 keeps the workload seed).
dbsm::core::experiment_config leg_config(const workload_spec& w, unsigned i);

/// The correctness gate: every reason the run is not acceptable, empty
/// when it passes (§5.3 safety, all seven monitors, response target
/// reached, and the per-workload path checks).
std::vector<std::string> gate(const workload_spec& w,
                              const dbsm::core::experiment_result& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
