#include "traced.hpp"

#include <algorithm>
#include <map>

#include "check/check.hpp"
#include "measure.hpp"
#include "tpcc/tpcc_workload.hpp"
#include "util/check.hpp"
#include "workload/client.hpp"

using namespace dbsm;

namespace perfbench {

namespace {

/// Times every next() of the wrapped source into the probes.
class timed_source final : public core::txn_source {
 public:
  timed_source(std::unique_ptr<core::txn_source> inner, probes& p)
      : inner_(std::move(inner)), p_(p) {}
  db::txn_request next(sim_time now) override {
    const double t0 = host_now();
    db::txn_request r = inner_->next(now);
    p_.next_s += host_now() - t0;
    ++p_.next_calls;
    return r;
  }
  double think_seconds(util::rng& gen) override {
    return inner_->think_seconds(gen);
  }

 private:
  std::unique_ptr<core::txn_source> inner_;
  probes& p_;
};

/// Forwards everything to the wrapped workload, wrapping its sources.
class timed_workload final : public core::workload {
 public:
  timed_workload(std::unique_ptr<core::workload> inner, probes& p)
      : inner_(std::move(inner)), p_(p) {}
  const char* name() const override { return inner_->name(); }
  std::size_t classes() const override { return inner_->classes(); }
  const char* class_name(db::txn_class cls) const override {
    return inner_->class_name(cls);
  }
  bool is_update_class(db::txn_class cls) const override {
    return inner_->is_update_class(cls);
  }
  double mean_think_seconds() const override {
    return inner_->mean_think_seconds();
  }
  void prepare(unsigned sites, unsigned clients, util::rng gen) override {
    inner_->prepare(sites, clients, std::move(gen));
  }
  std::unique_ptr<core::txn_source> make_source(
      const core::client_slot& slot, util::rng gen) override {
    return std::make_unique<timed_source>(
        inner_->make_source(slot, std::move(gen)), p_);
  }

 private:
  std::unique_ptr<core::workload> inner_;
  probes& p_;
};

/// Runs `fn` as one timed checker call when probes are attached.
template <typename Fn>
void checked(probes* p, Fn&& fn) {
  if (!p) {
    fn();
    return;
  }
  const double t0 = host_now();
  fn();
  p->check_s += host_now() - t0;
}

}  // namespace

dbsm::core::cluster::config cluster_config(
    const dbsm::core::experiment_config& cfg) {
  const unsigned total_sites = cfg.sites + (cfg.dedicated_sequencer ? 1 : 0);
  core::cluster::config ccfg;
  ccfg.sites = total_sites;
  ccfg.cpus_per_site = cfg.cpus_per_site;
  ccfg.replica_cfg = cfg.replica_cfg;
  ccfg.replica_cfg.placement =
      place::placement::make(cfg.placement, total_sites);
  if (!ccfg.replica_cfg.placement.is_full() &&
      ccfg.replica_cfg.cert.shards > 1 && !ccfg.replica_cfg.cert.shard_map) {
    const place::placement resolved = ccfg.replica_cfg.placement;
    ccfg.replica_cfg.cert.shard_map = [resolved](db::item_id id,
                                                 std::size_t shards) {
      return static_cast<std::size_t>(resolved.primary(id)) % shards;
    };
  }
  ccfg.gcs = cfg.gcs;
  ccfg.gcs.enable_recovery = ccfg.gcs.enable_recovery || cfg.enable_recovery;
  ccfg.costs = cfg.costs;
  ccfg.lan = cfg.lan;
  ccfg.use_wan = cfg.use_wan;
  ccfg.wan = cfg.wan;
  ccfg.measure_real_time = cfg.measure_real_time;
  ccfg.seed = cfg.seed;
  return ccfg;
}

// Member order mirrors run_experiment's locals, so destruction (the
// teardown) runs in the same order: monitors, clients, cluster, workload.
struct harness::state {
  struct site_counters {
    std::uint64_t commits = 0;
    std::uint64_t responses = 0;
  };

  core::experiment_config cfg;
  probes* p = nullptr;
  std::unique_ptr<core::workload> wl;
  core::cluster::config ccfg;
  std::unique_ptr<core::cluster> c;
  core::experiment_result result;
  std::uint64_t responses = 0;
  std::vector<site_counters> by_site;
  std::vector<std::unique_ptr<core::client>> clients;
  std::vector<std::vector<core::client*>> site_clients;
  std::map<unsigned, sim_time> recovery_started;
  std::unique_ptr<check::checker> checker;
};

harness::harness(const core::experiment_config& cfg_in, probes* p)
    : s_(std::make_unique<state>()) {
  state& s = *s_;
  s.cfg = cfg_in;
  s.p = p;
  const core::experiment_config& cfg = s.cfg;
  DBSM_CHECK(cfg.clients >= 1);

  s.wl = cfg.workload ? cfg.workload() : tpcc::make_workload(cfg.profile);
  DBSM_CHECK(s.wl != nullptr);
  if (p) s.wl = std::make_unique<timed_workload>(std::move(s.wl), *p);

  s.ccfg = cluster_config(cfg);
  const unsigned total_sites = s.ccfg.sites;
  s.c = std::make_unique<core::cluster>(s.ccfg);
  core::cluster& c = *s.c;

  util::rng root(cfg.seed);
  s.wl->prepare(total_sites, cfg.clients, root);

  core::workload& wl = *s.wl;
  s.result.stats = core::txn_stats(wl.classes());
  s.result.workload_name = wl.name();
  for (db::txn_class cls = 0;
       cls < static_cast<db::txn_class>(wl.classes()); ++cls) {
    s.result.class_names.emplace_back(wl.class_name(cls));
    s.result.class_is_update.push_back(wl.is_update_class(cls));
  }
  s.by_site.resize(total_sites);
  s.site_clients.resize(total_sites);
  const double think_mean = wl.mean_think_seconds();
  util::rng stagger = root.fork("stagger");

  const unsigned first_client_site = cfg.dedicated_sequencer ? 1 : 0;
  for (unsigned i = 0; i < cfg.clients; ++i) {
    const unsigned site = first_client_site + i % cfg.sites;
    auto submit = [&c, site](db::txn_request req,
                             std::function<void(db::txn_outcome)> done) {
      c.site(site).submit(std::move(req), std::move(done));
    };
    auto report = [&s, site](const core::client::result& r) {
      s.result.stats.record(r.cls, r.outcome, r.submitted, r.finished);
      ++s.responses;
      ++s.by_site[site].responses;
      if (r.outcome == db::txn_outcome::committed)
        ++s.by_site[site].commits;
      if (s.cfg.target_responses != 0 &&
          s.responses >= s.cfg.target_responses)
        s.c->sim().stop();
    };
    core::client_slot slot;
    slot.site = site;
    slot.index = i;
    slot.total_clients = cfg.clients;
    s.clients.push_back(std::make_unique<core::client>(
        c.sim(),
        wl.make_source(slot, root.fork("source" + std::to_string(i))),
        submit, report, root.fork("client" + std::to_string(i))));
    s.site_clients[site].push_back(s.clients.back().get());
  }

  fault::injection_points pts;
  pts.net = &c.network();
  for (unsigned i = 0; i < total_sites; ++i) pts.envs.push_back(&c.env(i));
  auto& site_clients = s.site_clients;
  pts.crash = [&c, &site_clients](unsigned site) {
    c.crash_site(site);
    for (core::client* cl : site_clients[site]) cl->stop();
  };
  if (s.ccfg.gcs.enable_recovery) {
    pts.recover = [&c, &site_clients](unsigned site) {
      for (core::client* cl : site_clients[site]) cl->stop();
      c.recover_site(site, [&site_clients](unsigned st) {
        for (core::client* cl : site_clients[st]) cl->resume();
      });
    };
  }
  cfg.faults.install(c.sim(), std::move(pts));

  if (cfg.checks.enabled) {
    s.checker = check::checker::standard(cfg.checks, total_sites,
                                         s.ccfg.replica_cfg.cert,
                                         s.ccfg.replica_cfg.placement);
    s.checker->set_halt([&c] { c.sim().stop(); });
  }
  // The observer is installed whenever monitors run (as run_experiment
  // does) and also when tracing, to capture; it is passive either way.
  if (s.checker || p) {
    check::checker* ck = s.checker.get();
    core::cluster::observer obs;
    obs.on_decision = [ck, p, &c](unsigned site,
                                  const cert::txn_payload& txn,
                                  std::uint64_t seq, bool commit,
                                  std::uint64_t len) {
      if (p && site == 0) {
        p->decided.push_back(txn);
        p->verdicts.push_back(commit);
      }
      if (!ck) return;
      checked(p, [&] {
        ck->decision({site, seq, &txn, commit, len, c.sim().now()});
      });
      if (p) ++p->check_decisions;
    };
    obs.on_apply = [ck, p, &c](unsigned site, const cert::txn_payload& txn,
                               std::uint64_t seq,
                               const std::vector<db::item_id>& slice,
                               std::uint64_t durable_bytes) {
      if (p) ++p->applies;
      if (!ck) return;
      checked(p, [&] {
        ck->applied({site, seq, &txn, &slice, durable_bytes, c.sim().now()});
      });
    };
    obs.on_view = [ck, p, &c](unsigned site, const gcs::view& v,
                              std::uint64_t delivered) {
      if (!ck) return;
      checked(p, [&] {
        ck->view_installed({site, v, delivered, c.sim().now()});
      });
    };
    obs.on_excluded = [ck, p, &c](unsigned site) {
      if (!ck) return;
      checked(p, [&] { ck->excluded({site, c.sim().now()}); });
    };
    obs.on_log_reset = [ck, p, &c](unsigned site,
                                   const std::vector<std::uint64_t>& log) {
      if (!ck) return;
      checked(p, [&] { ck->log_reset({site, &log, c.sim().now()}); });
    };
    obs.on_recovery_start = [ck, p, &c, &s](unsigned site) {
      if (p) s.recovery_started[site] = c.sim().now();
      if (!ck) return;
      checked(p, [&] { ck->recovery_started({site, c.sim().now()}); });
    };
    obs.on_rejoined = [ck, p, &c, &s](unsigned site, std::uint64_t len) {
      if (p) {
        auto it = s.recovery_started.find(site);
        if (it != s.recovery_started.end()) {
          p->rejoin_sim_s += to_seconds(c.sim().now() - it->second);
          s.recovery_started.erase(it);
        }
      }
      if (!ck) return;
      checked(p, [&] { ck->rejoined({site, len, c.sim().now()}); });
    };
    obs.on_read = [ck, p, &c](unsigned site, bool fast, std::uint64_t epoch,
                              std::uint64_t log_len,
                              std::uint64_t last_commit_id) {
      if (!ck) return;
      checked(p, [&] {
        ck->read({site, fast, epoch, log_len, last_commit_id,
                  c.sim().now()});
      });
    };
    c.set_observer(std::move(obs));
  }

  c.start();
  for (auto& cl : s.clients) {
    cl->start(from_seconds(stagger.uniform() * think_mean));
  }
}

harness::~harness() = default;

core::cluster& harness::cluster() { return *s_->c; }

void harness::run() { s_->c->sim().run_until(s_->cfg.max_sim_time); }

core::experiment_result harness::gather() {
  state& s = *s_;
  core::cluster& c = *s.c;
  core::experiment_result result = std::move(s.result);
  const unsigned total_sites = s.ccfg.sites;

  result.duration = c.sim().now();
  result.responses = s.responses;

  const auto operational = c.operational_sites();
  DBSM_CHECK(!operational.empty());
  for (unsigned i : operational) {
    result.cpu_utilization += c.cpu(i).utilization();
    result.protocol_cpu_utilization += c.cpu(i).real_utilization();
    result.disk_utilization += c.site(i).server().disk().utilization();
    for (double v : c.site(i).cert_latency_ms().sorted())
      result.cert_latency_ms.add(v);
    result.commit_logs.push_back(c.site(i).commit_log());
    const auto& rs = c.group(i).rmcast_stats();
    result.naks_sent += rs.naks_sent;
    result.retransmissions += rs.retransmissions;
    result.blocked_episodes += rs.blocked_episodes;
    result.blocked_ms += to_millis(rs.blocked_time);
    result.view_changes =
        std::max(result.view_changes, c.group(i).view_changes());
  }
  std::vector<core::site_log_input> all_site_logs;
  for (unsigned i = 0; i < total_sites; ++i) {
    core::site_report sr;
    sr.state = c.status(i);
    sr.committed_log = c.site(i).commit_log().size();
    sr.client_commits = s.by_site[i].commits;
    sr.client_responses = s.by_site[i].responses;
    sr.disk_utilization = c.site(i).server().disk().utilization();
    sr.applied_update_bytes = c.site(i).applied_update_bytes();
    sr.store_bytes = c.site(i).store().durable_bytes();
    sr.owned_granules = c.site(i).store().owned_granules();
    sr.tracked_granules = c.site(i).store().tracked_granules();
    sr.delivered_payload_bytes = c.site(i).delivered_payload_bytes();
    sr.interested_payload_bytes = c.site(i).interested_payload_bytes();
    sr.join_snapshot_bytes = c.group(i).join_snapshot_bytes();
    sr.join_chunk_bytes = c.group(i).join_chunk_bytes();
    sr.fast_path_reads = c.site(i).fast_path_reads();
    sr.fallback_reads = c.site(i).fallback_reads();
    sr.ro_broadcasts = c.site(i).ro_broadcasts();
    sr.lease_revocations = c.site(i).lease_revocations();
    sr.delivery_runs = c.site(i).delivery_runs();
    sr.run_payloads = c.site(i).run_payloads();
    sr.pipeline_high_water = c.site(i).pipeline_high_water();
    sr.protocol_cpu = c.cpu(i).real_utilization();
    sr.token_ctl_sent = c.group(i).token_ctl_sent();
    result.sites.push_back(sr);

    core::site_log_input in;
    in.log = c.site(i).commit_log();
    in.state = sr.state == core::cluster::site_status::operational
                   ? core::site_log_input::kind::operational
               : sr.state == core::cluster::site_status::rejoined
                   ? core::site_log_input::kind::rejoined
                   : core::site_log_input::kind::crashed;
    in.reported_committed = sr.committed_log;
    all_site_logs.push_back(std::move(in));
  }
  const double n = static_cast<double>(operational.size());
  result.cpu_utilization /= n;
  result.protocol_cpu_utilization /= n;
  result.disk_utilization /= n;
  if (result.duration > 0) {
    result.network_kbps =
        static_cast<double>(c.network().total_wire_bytes()) / 1024.0 /
        to_seconds(result.duration);
  }
  result.safety =
      core::check_commit_logs(all_site_logs, s.cfg.checks.rejoin_max_lag);
  if (s.checker) {
    checked(s.p, [&] { s.checker->run_end(c.sim().now()); });
    result.checks = s.checker->get_report();
  }
  return result;
}

}  // namespace perfbench
