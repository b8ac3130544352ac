#include "workloads.hpp"

#include <stdexcept>

#include "fault/scenarios.hpp"
#include "workload/kv.hpp"

using namespace dbsm;

namespace perfbench {

namespace {

/// The paper's testbed (§4.1): calibrated PIII sites on switched 100 Mbps
/// Ethernet, the TPC-C workload, fixed sequencer, serial delivery, full
/// placement, read path off, online monitors on.
core::experiment_config paper_tpcc(unsigned sites, unsigned clients,
                                   std::uint64_t seed) {
  core::experiment_config cfg;
  cfg.sites = sites;
  cfg.cpus_per_site = 1;
  cfg.clients = clients;
  cfg.max_sim_time = seconds(3600);
  cfg.seed = seed;
  return cfg;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "tpcc-paper", "ycsb-a-fast", "tpcc-crash-rejoin"};
  return names;
}

workload_spec make_workload(const std::string& name, std::uint64_t seed) {
  workload_spec w;
  w.name = name;
  if (name == "tpcc-paper") {
    // The 6 x 1 CPU system of Fig 5 on every default path, loaded below
    // its knee (see perfbench/README.md for why not at it).
    w.cfg = paper_tpcc(6, 900, seed);
    w.cfg.target_responses = 4000;
    w.legs = 40;
  } else if (name == "ycsb-a-fast") {
    // The protocol-bound regime of the batching ablation: light KV
    // execution on a fast engine, batched broadcast with the commit
    // pipeline, and lease-guarded local reads.
    w.cfg = paper_tpcc(3, 1500, seed);
    w.cfg.target_responses = 100000;
    w.legs = 12;
    kv::kv_config k;
    k.keys = 20000;
    k.preset = kv::mix::ycsb_a;
    k.zipf_theta = 0.5;
    k.value_bytes = 32;
    k.cpu_per_op = util::constant_dist(20e-6);
    k.think_time = util::exponential_dist(0.1);
    w.cfg.workload = kv::factory(k);
    w.cfg.replica_cfg.server.commit_cpu = microseconds(200);
    w.cfg.replica_cfg.server.remote_apply_cpu = microseconds(100);
    w.cfg.replica_cfg.server.storage.request_latency = microseconds(170);
    w.cfg.gcs.batch_max = 32;
    w.cfg.gcs.batch_delay = milliseconds(5);
    w.cfg.replica_cfg.read.path = read::mode::fast;
    w.fast_reads = true;
  } else if (name == "tpcc-crash-rejoin") {
    // The paper's single-fault campaign shape, completed by recovery:
    // crash the last site at 20 s, restart it 10 s later, state transfer
    // and view merge bring it back. Not in BENCHMARK.json: the crash's
    // view change breaks view synchrony at about 2% of seeds (see the
    // known defects in perfbench/README.md).
    w.cfg = paper_tpcc(6, 1200, seed);
    w.cfg.target_responses = 6000;
    w.legs = 16;
    fault::scenarios::params p;
    p.sites = w.cfg.sites;
    p.onset = seconds(20);
    p.exclusion_timeout = w.cfg.gcs.suspect_timeout;
    w.cfg.faults = fault::scenarios::crash_restart(p);
    w.cfg.enable_recovery = true;
    w.expected_rejoins = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

core::experiment_config leg_config(const workload_spec& w, unsigned i) {
  core::experiment_config cfg = w.cfg;
  if (i != 0) {
    // splitmix64 of (seed, leg): distinct, well-spread leg seeds.
    std::uint64_t z = w.cfg.seed + 0x9e3779b97f4a7c15ull * (i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    cfg.seed = z ^ (z >> 31);
  }
  return cfg;
}

std::vector<std::string> gate(const workload_spec& w,
                              const core::experiment_result& r) {
  std::vector<std::string> why;
  if (!r.safety.ok) why.push_back("safety: " + r.safety.detail);
  if (!r.checks.ok) why.push_back("monitors: " + r.checks.summary());
  if (r.responses < w.cfg.target_responses)
    why.push_back("response target not reached: " +
                  std::to_string(r.responses) + " < " +
                  std::to_string(w.cfg.target_responses));
  if (w.fast_reads) {
    std::uint64_t fast = 0, ro = 0;
    for (const core::site_report& s : r.sites) {
      fast += s.fast_path_reads;
      ro += s.ro_broadcasts;
    }
    if (fast == 0) why.push_back("no fast-path reads");
    if (ro != 0)
      why.push_back(std::to_string(ro) + " read-only broadcasts");
  }
  if (r.rejoined_sites() != w.expected_rejoins)
    why.push_back("rejoined sites " + std::to_string(r.rejoined_sites()) +
                  " != " + std::to_string(w.expected_rejoins));
  return why;
}

}  // namespace perfbench
