// The traced harness: the steps of core::run_experiment, driven through
// the public core::cluster API so the benchmark can time the calls into
// each layer from outside (checker calls, transaction sources, the run
// loop, teardown) and capture the certified payloads that the per-layer
// replays feed back through cert, db and place.
//
// Its modeled outputs must equal run_experiment's at the same seed; the
// runner compares them on every traced run and fails loudly when they
// differ, so a change to core/experiment.cpp cannot leave this mirror
// silently stale.
#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "cert/txn_codec.hpp"
#include "core/experiment.hpp"

namespace perfbench {

/// Counters and spans the traced run records at layer boundaries.
struct probes {
  /// Host time inside check::checker calls, and the decisions checked.
  double check_s = 0;
  std::uint64_t check_decisions = 0;
  /// Host time inside core::txn_source::next, and the number of calls.
  double next_s = 0;
  std::uint64_t next_calls = 0;
  /// Certification decisions at site 0, in delivery order, with their
  /// verdicts (the replay input for cert, db and place).
  std::vector<dbsm::cert::txn_payload> decided;
  std::vector<bool> verdicts;
  /// Committed applies observed at every site.
  std::uint64_t applies = 0;
  /// Simulated seconds from each recovery start to its rejoin.
  double rejoin_sim_s = 0;
};

/// Builds the cluster configuration exactly as core::run_experiment does
/// from an experiment config (placement resolution included).
dbsm::core::cluster::config cluster_config(
    const dbsm::core::experiment_config& cfg);

/// One experiment, split into the steps run_experiment performs in one
/// call. The constructor is the set-up (cluster, workload, clients, fault
/// scenario, monitors, start); run() drives the simulator; gather() builds
/// the result exactly as run_experiment does; the destructor is the
/// teardown. With `p` null nothing is timed or captured.
class harness {
 public:
  harness(const dbsm::core::experiment_config& cfg, probes* p);
  ~harness();

  harness(const harness&) = delete;
  harness& operator=(const harness&) = delete;

  void run();
  dbsm::core::experiment_result gather();
  dbsm::core::cluster& cluster();

 private:
  struct state;
  std::unique_ptr<state> s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_HPP
