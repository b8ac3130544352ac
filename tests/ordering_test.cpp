// Conformance suite of the total order (the gcs/ordering.hpp seam and
// its one implementation, the §3.4 fixed sequencer): the seed-7 campaign
// anchors byte-for-byte, and the full fault catalog under the seven online
// monitors and the §5.3 off-line safety check, recovery rejoin included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fault/scenarios.hpp"
#include "util/distributions.hpp"
#include "workload/kv.hpp"

namespace dbsm {
namespace {

// ---------- the fixed-sequencer anchor pin (byte-identical default) ----

std::uint64_t fnv1a(const std::vector<std::uint64_t>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : log)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

core::experiment_config campaign_cfg(
    const fault::scenarios::catalog_entry& e) {
  fault::scenarios::params prm;
  prm.sites = std::max(3u, e.min_sites);
  core::experiment_config cfg;
  cfg.sites = prm.sites;
  cfg.clients = 120;
  cfg.target_responses = 1500;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  cfg.faults = e.make(prm);
  cfg.enable_recovery = e.needs_recovery;
  if (e.placement_degree > 0)
    cfg.placement = {place::strategy::round_robin, e.placement_degree};
  return cfg;
}

// The default campaign stays byte-identical to its recorded anchors
// (ROADMAP/REPRODUCING): the six paper scenarios at seed 7 commit exactly
// 1486/1486/1488/1484/1482/1489, and site 0's committed sequence hashes
// to the recorded value.
TEST(ordering_anchor, fixed_sequencer_reproduces_the_pr9_campaign) {
  struct anchor {
    const char* scenario;
    std::uint64_t committed, log0_hash;
  };
  const anchor anchors[] = {
      {"no_faults", 1486, 15300083140241123095ull},
      {"clock_drift", 1486, 15300083140241123095ull},
      {"sched_latency", 1488, 16253171361519036774ull},
      {"random_loss", 1484, 13248787998320292641ull},
      {"bursty_loss", 1482, 16672813696863721401ull},
      {"crash", 1489, 15446268365123131477ull},
  };
  for (const anchor& a : anchors) {
    const auto* e = fault::scenarios::find(a.scenario);
    ASSERT_NE(e, nullptr) << a.scenario;
    const auto r = core::run_experiment(campaign_cfg(*e));
    EXPECT_EQ(r.stats.total_committed(), a.committed) << a.scenario;
    ASSERT_FALSE(r.commit_logs.empty()) << a.scenario;
    EXPECT_EQ(fnv1a(r.commit_logs[0]), a.log0_hash) << a.scenario;
    EXPECT_TRUE(r.checks.ok) << a.scenario << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << a.scenario << ": " << r.safety.detail;
  }
}

// ---------- conformance: the full fault catalog ----------

// Every catalog scenario on a YCSB-A mix: the monitors cross-check every
// certification decision and apply online, the §5.3 off-line check
// verifies identical committed sequences across operational sites, and
// rejoin scenarios must actually bring the crashed site back. This is the
// runtime specification any ordering implementation is held to.
TEST(ordering_conformance, full_fault_catalog_passes) {
  for (const auto& e : fault::scenarios::catalog()) {
    const unsigned sites = e.min_sites > 3 ? 5 : 3;
    core::experiment_config cfg;
    cfg.sites = sites;
    cfg.clients = 45;
    cfg.target_responses = 0;
    cfg.max_sim_time = std::string(e.name) == "rolling_restarts" ? seconds(55)
                       : e.needs_recovery                        ? seconds(25)
                                                                 : seconds(15);
    cfg.seed = 7;
    kv::kv_config k;
    k.keys = 20000;
    k.preset = kv::mix::ycsb_a;
    k.zipf_theta = 0.5;
    k.think_time = util::exponential_dist(0.5);
    cfg.workload = kv::factory(k);
    fault::scenarios::params prm;
    prm.sites = sites;
    prm.onset = seconds(2);
    cfg.faults = e.make(prm);
    cfg.enable_recovery = e.needs_recovery;
    if (e.placement_degree != 0)
      cfg.placement = {place::strategy::round_robin, e.placement_degree};
    const auto r = core::run_experiment(cfg);
    EXPECT_TRUE(r.checks.ok) << e.name << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << e.name << ": " << r.safety.detail;
    EXPECT_GT(r.stats.total_committed(), 0u) << e.name;
    if (e.needs_recovery) {
      EXPECT_GE(r.rejoined_sites(), 1u) << e.name;
    }
  }
}

}  // namespace
}  // namespace dbsm
