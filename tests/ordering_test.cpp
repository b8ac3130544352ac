// Cross-ordering differential conformance suite (the gcs/ordering.hpp
// seam): every total-order implementation must satisfy the same runtime
// specification — the seven online monitors, the §5.3 off-line safety
// check, and deterministic same-seed replay — across the full fault
// catalog, the paper's campaign scenarios, recovery rejoin, and the
// batching grid. The fixed sequencer (the default) is additionally held
// to the historical seed-7 anchors byte-for-byte; the rotating token is
// held to the protocol-level contract (regeneration at view change,
// retransmission until superseded, holder-only minting) by scripted
// fake-env unit tests, including token-loss and holder-crash cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fake_env.hpp"
#include "fault/scenarios.hpp"
#include "gcs/sequencer.hpp"
#include "gcs/token_order.hpp"
#include "util/distributions.hpp"
#include "workload/kv.hpp"

namespace dbsm {
namespace {

using test::fake_env;

// ---------- token wire codec ----------

TEST(token_codec, round_trips_exactly) {
  gcs::token_msg t;
  t.hdr = {gcs::msg_type::token, 42, 3};
  t.token_seq = 17;
  t.next_assign = 0xdeadbeefcafeull;
  t.holder = 2;
  const gcs::token_msg back = gcs::decode_token(gcs::encode(t));
  EXPECT_EQ(back.hdr.view_id, 42u);
  EXPECT_EQ(back.hdr.sender, 3u);
  EXPECT_EQ(back.token_seq, 17u);
  EXPECT_EQ(back.next_assign, 0xdeadbeefcafeull);
  EXPECT_EQ(back.holder, 2u);
}

TEST(token_codec, header_peek_identifies_the_type) {
  gcs::token_msg t;
  t.hdr = {gcs::msg_type::token, 7, 1};
  EXPECT_EQ(gcs::decode_header(gcs::encode(t)).type, gcs::msg_type::token);
}

// ---------- token_order protocol unit tests (scripted fake env) ----------

util::shared_bytes text_payload(const std::string& s) {
  return std::make_shared<util::bytes>(s.begin(), s.end());
}

struct token_fixture {
  fake_env env{0, {0, 1, 2}};
  gcs::group_config cfg;
  gcs::token_order to{env, cfg};
  std::vector<std::pair<std::uint64_t, std::string>> delivered;
  std::vector<util::shared_bytes> sent_mints;
  struct pass {
    std::uint64_t seq;
    std::uint64_t next_assign;
    node_id holder;
  };
  std::vector<pass> passes;

  token_fixture() {
    to.set_deliver_run([this](std::vector<gcs::delivery>&& run) {
      for (const gcs::delivery& d : run)
        delivered.emplace_back(
            d.global_seq, std::string(d.payload->begin(), d.payload->end()));
    });
    to.set_send_batch([this](util::shared_bytes b) {
      sent_mints.push_back(std::move(b));
    });
    to.set_send_token([this](std::uint64_t seq, std::uint64_t next_assign,
                             node_id holder) {
      passes.push_back({seq, next_assign, holder});
    });
  }

  static gcs::token_msg tok(std::uint64_t seq, std::uint64_t next_assign,
                            node_id holder, node_id sender = 2) {
    gcs::token_msg t;
    t.hdr = {gcs::msg_type::token, 1, sender};
    t.token_seq = seq;
    t.next_assign = next_assign;
    t.holder = holder;
    return t;
  }
};

TEST(token_order, lead_regenerates_the_token_and_passes_when_idle) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);  // we are the lead: hold, no wire message
  EXPECT_TRUE(f.to.holds_token());
  EXPECT_TRUE(f.passes.empty());
  // Nothing of ours to order: the idle delay bounds how long we sit on it.
  f.env.advance(f.cfg.token_idle_delay + microseconds(1));
  ASSERT_EQ(f.passes.size(), 1u);
  EXPECT_EQ(f.passes[0].holder, 1u);  // next member in site-id order
  EXPECT_FALSE(f.to.holds_token());
  EXPECT_TRUE(f.sent_mints.empty());  // idle pass mints nothing
}

TEST(token_order, holder_mints_own_pending_then_passes) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  // Completion of our own message while holding: mint one batch record
  // and pass straight away — no idle wait.
  ASSERT_EQ(f.sent_mints.size(), 1u);
  const gcs::assignment_batch b =
      gcs::decode_assignment_batch(f.sent_mints[0]);
  EXPECT_EQ(b.base, 1u);
  ASSERT_EQ(b.keys.size(), 1u);
  EXPECT_EQ(b.keys[0].first, 0u);
  EXPECT_EQ(b.keys[0].second, 1u);
  ASSERT_EQ(f.passes.size(), 1u);
  EXPECT_EQ(f.passes[0].next_assign, 2u);  // numbering travels with it
  // Like the sequencer, the mint takes effect only via the wire echo.
  EXPECT_TRUE(f.delivered.empty());
  f.to.on_assignment_batch(f.sent_mints[0]);
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, "mine");
}

TEST(token_order, non_holder_buffers_until_the_token_arrives) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 1);  // lead is site 1: we wait
  EXPECT_FALSE(f.to.holds_token());
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  EXPECT_TRUE(f.sent_mints.empty());  // no token, no mint
  f.to.on_token(token_fixture::tok(1, 1, 0));  // the token reaches us
  EXPECT_EQ(f.to.mints(), 1u);
  ASSERT_EQ(f.sent_mints.size(), 1u);
  ASSERT_EQ(f.passes.size(), 1u);
  EXPECT_EQ(f.passes[0].holder, 1u);
}

TEST(token_order, holder_never_mints_other_sites_messages) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);
  f.to.on_user_msg(1, 1, text_payload("theirs"), 1);
  f.env.advance(f.cfg.token_idle_delay + microseconds(1));
  EXPECT_TRUE(f.sent_mints.empty());  // their own hop will order it
  ASSERT_EQ(f.passes.size(), 1u);
}

TEST(token_order, duplicate_and_stale_tokens_are_ignored) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 1);
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  f.to.on_token(token_fixture::tok(3, 1, 0));
  ASSERT_EQ(f.passes.size(), 1u);
  // A retransmission of the same hop must not re-acquire (we passed on),
  // and an overtaken hop must not either.
  f.to.on_token(token_fixture::tok(3, 1, 0));
  f.to.on_token(token_fixture::tok(2, 1, 0));
  EXPECT_EQ(f.passes.size(), 1u);
  EXPECT_EQ(f.to.mints(), 1u);
  EXPECT_FALSE(f.to.holds_token());
}

TEST(token_order, passer_retransmits_until_superseded) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);
  f.env.advance(f.cfg.token_idle_delay + microseconds(1));  // pass to 1
  ASSERT_EQ(f.passes.size(), 1u);
  const auto first = f.passes[0];
  // The successor stays silent: the pass is re-multicast verbatim.
  f.env.advance(f.cfg.token_retry);
  ASSERT_EQ(f.passes.size(), 2u);
  EXPECT_EQ(f.passes[1].seq, first.seq);
  EXPECT_EQ(f.passes[1].holder, first.holder);
  EXPECT_EQ(f.to.token_retries(), 1u);
  // Observing a later hop (site 1 passed to site 2) supersedes it.
  f.to.on_token(token_fixture::tok(first.seq + 1, 1, 2));
  f.env.advance(2 * f.cfg.token_retry);
  EXPECT_EQ(f.passes.size(), 2u);
}

TEST(token_order, token_returns_after_full_circulation) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);
  f.env.advance(f.cfg.token_idle_delay + microseconds(1));  // pass to 1
  const std::uint64_t hop = f.passes[0].seq;
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  EXPECT_EQ(f.sent_mints.size(), 0u);  // not holding: buffered
  // Site 2 passes the token back to us, carrying the advanced numbering
  // (sites 1 and 2 minted two records while they held it).
  f.to.on_token(token_fixture::tok(hop + 2, 5, 0));
  ASSERT_EQ(f.sent_mints.size(), 1u);
  EXPECT_EQ(gcs::decode_assignment_batch(f.sent_mints[0]).base, 5u);
}

TEST(token_order, quiesce_stops_minting_and_the_token_clock) {
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);
  EXPECT_GT(f.env.pending_timers(), 0u);  // the idle hold timer
  f.to.quiesce();
  EXPECT_EQ(f.env.pending_timers(), 0u);  // clock stopped
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  EXPECT_TRUE(f.sent_mints.empty());  // no mint while quiesced
  EXPECT_TRUE(f.passes.empty());
}

TEST(token_order, view_change_regenerates_the_token_deterministically) {
  // Token-loss-at-view-change: the member holding (or owed) the token is
  // voted out; the survivors' install must regenerate it at the new lead
  // with no wire message, and deliver the flushed backlog first.
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 1);  // site 1 holds the token...
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  f.to.on_user_msg(2, 1, text_payload("theirs"), 1);
  f.to.quiesce();
  // ...and crashes with it. Flush cut covers both buffered messages.
  f.to.install_view({0, 1, 2}, {5, 5, 5}, {0, 2});
  ASSERT_EQ(f.delivered.size(), 2u);  // deterministic unassigned delivery
  EXPECT_EQ(f.delivered[0].second, "mine");    // (0,1) before (2,1)
  EXPECT_EQ(f.delivered[1].second, "theirs");
  f.to.set_roles({0, 2}, 0);  // new view: we are lead
  EXPECT_TRUE(f.to.holds_token());
  // Nothing left unordered, so the fresh token idles and passes on.
  f.env.advance(f.cfg.token_idle_delay + microseconds(1));
  ASSERT_EQ(f.passes.size(), 1u);
  EXPECT_EQ(f.passes[0].holder, 2u);  // site 1 is gone from the rotation
}

TEST(token_order, mint_in_flight_at_view_change_needs_no_rollback) {
  // A mint broadcast before quiesce() is covered by the flush cut: the
  // record arrives during the flush and the install delivers through it —
  // the minter must not roll those assignments back (they are
  // wire-visible, unlike the sequencer's unflushed batch).
  token_fixture f;
  f.to.set_roles({0, 1, 2}, 0);
  f.to.on_user_msg(0, 1, text_payload("mine"), 1);
  ASSERT_EQ(f.sent_mints.size(), 1u);
  f.to.quiesce();
  f.to.on_assignment_batch(f.sent_mints[0]);  // the echo, inside the cut
  ASSERT_EQ(f.delivered.size(), 1u);
  f.to.install_view({0, 1, 2}, {5, 5, 5}, {0, 2});
  f.to.set_roles({0, 2}, 0);
  EXPECT_EQ(f.delivered.size(), 1u);   // nothing double-delivered
  EXPECT_EQ(f.sent_mints.size(), 1u);  // nothing re-minted
}

TEST(token_order, single_member_view_keeps_the_token) {
  fake_env env{0, std::vector<node_id>{0}};
  gcs::group_config cfg;
  gcs::token_order to{env, cfg};
  std::vector<util::shared_bytes> mints;
  std::size_t passes = 0;
  to.set_send_batch([&](util::shared_bytes b) { mints.push_back(b); });
  to.set_send_token([&](std::uint64_t, std::uint64_t, node_id) { ++passes; });
  to.set_roles({0}, 0);
  EXPECT_TRUE(to.holds_token());
  to.on_user_msg(0, 1, text_payload("solo"), 1);
  EXPECT_EQ(mints.size(), 1u);  // mints immediately, keeps the token
  env.advance(seconds(1));
  EXPECT_EQ(passes, 0u);
  EXPECT_TRUE(to.holds_token());
}

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

core::experiment_config campaign_cfg(const fault::scenarios::catalog_entry& e,
                                     gcs::ordering_kind ord) {
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
  cfg.gcs.ordering = ord;
  if (e.placement_degree > 0)
    cfg.placement = {place::strategy::round_robin, e.placement_degree};
  return cfg;
}

// The ordering seam must leave the default campaign byte-identical to the
// PR 9 anchors (ROADMAP/REPRODUCING): the six paper scenarios at seed 7
// commit exactly 1486/1486/1488/1484/1482/1489, site 0's committed
// sequence hashes to the recorded value — and the fixed sequencer never
// touches the token control plane.
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
  gcs::group_config defaults;
  EXPECT_EQ(defaults.ordering, gcs::ordering_kind::fixed_sequencer);
  for (const anchor& a : anchors) {
    const auto* e = fault::scenarios::find(a.scenario);
    ASSERT_NE(e, nullptr) << a.scenario;
    const auto r = core::run_experiment(
        campaign_cfg(*e, gcs::ordering_kind::fixed_sequencer));
    EXPECT_EQ(r.stats.total_committed(), a.committed) << a.scenario;
    ASSERT_FALSE(r.commit_logs.empty()) << a.scenario;
    EXPECT_EQ(fnv1a(r.commit_logs[0]), a.log0_hash) << a.scenario;
    EXPECT_TRUE(r.checks.ok) << a.scenario << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << a.scenario << ": " << r.safety.detail;
    for (const core::site_report& s : r.sites) {
      EXPECT_EQ(s.token_ctl_sent, 0u) << a.scenario;
    }
  }
}

// ---------- differential conformance: catalog × both orderings ----------

const std::vector<gcs::ordering_kind>& both_orderings() {
  static const std::vector<gcs::ordering_kind> k = {
      gcs::ordering_kind::fixed_sequencer,
      gcs::ordering_kind::rotating_token};
  return k;
}

core::experiment_config kv_cfg(gcs::ordering_kind ord,
                               std::size_t batch_max = 1) {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 45;
  cfg.target_responses = 400;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  kv::kv_config k;
  k.keys = 20000;
  k.preset = kv::mix::ycsb_a;
  k.zipf_theta = 0.5;
  k.think_time = util::exponential_dist(0.5);
  cfg.workload = kv::factory(k);
  cfg.gcs.ordering = ord;
  cfg.gcs.batch_max = batch_max;
  if (batch_max > 1) cfg.gcs.batch_delay = milliseconds(2);
  return cfg;
}

// Every catalog scenario under BOTH orderings: the monitors cross-check
// every certification decision and apply online, the §5.3 off-line check
// verifies identical committed sequences across operational sites, and
// rejoin scenarios must actually bring the crashed site back. This is
// the runtime specification every ordering implementation is held to.
TEST(ordering_differential, full_fault_catalog_passes_under_both) {
  bool saw_token_holder_crash = false;
  for (const auto& e : fault::scenarios::catalog()) {
    for (const gcs::ordering_kind ord : both_orderings()) {
      const unsigned sites = e.min_sites > 3 ? 5 : 3;
      auto cfg = kv_cfg(ord);
      cfg.sites = sites;
      fault::scenarios::params prm;
      prm.sites = sites;
      prm.onset = seconds(2);
      cfg.faults = e.make(prm);
      cfg.enable_recovery = e.needs_recovery;
      if (e.placement_degree != 0)
        cfg.placement = {place::strategy::round_robin, e.placement_degree};
      cfg.target_responses = 0;
      cfg.max_sim_time =
          std::string(e.name) == "rolling_restarts" ? seconds(55)
          : e.needs_recovery                        ? seconds(25)
                                                    : seconds(15);
      const char* oname = gcs::ordering_name(ord);
      const auto r = core::run_experiment(cfg);
      EXPECT_TRUE(r.checks.ok)
          << e.name << "/" << oname << ": " << r.checks.summary();
      EXPECT_TRUE(r.safety.ok)
          << e.name << "/" << oname << ": " << r.safety.detail;
      EXPECT_GT(r.stats.total_committed(), 0u) << e.name << "/" << oname;
      if (e.needs_recovery) {
        EXPECT_GE(r.rejoined_sites(), 1u) << e.name << "/" << oname;
      }
      if (std::string(e.name) == "token_holder_crash") {
        saw_token_holder_crash = true;
        if (ord == gcs::ordering_kind::rotating_token) {
          EXPECT_GE(r.view_changes, 1u) << "holder crash went unnoticed";
        }
      }
    }
  }
  EXPECT_TRUE(saw_token_holder_crash);  // the new scenario is cataloged
}

// The paper's campaign scenarios at full campaign size under the
// rotating token: no anchors here (the token legitimately produces a
// different — equally valid — total order), but zero monitor violations,
// identical committed sequences across sites, and campaign-grade
// throughput are required.
TEST(ordering_differential, rotating_token_passes_the_paper_campaigns) {
  for (const char* scenario :
       {"no_faults", "clock_drift", "sched_latency", "random_loss",
        "bursty_loss", "crash"}) {
    const auto* e = fault::scenarios::find(scenario);
    ASSERT_NE(e, nullptr) << scenario;
    const auto r = core::run_experiment(
        campaign_cfg(*e, gcs::ordering_kind::rotating_token));
    EXPECT_TRUE(r.checks.ok) << scenario << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << scenario << ": " << r.safety.detail;
    EXPECT_GT(r.stats.total_committed(), 1400u) << scenario;
    std::uint64_t token_traffic = 0;
    for (const core::site_report& s : r.sites)
      token_traffic += s.token_ctl_sent;
    EXPECT_GT(token_traffic, 0u) << scenario;
  }
}

// Token-holder crash at full campaign size: the token dies with its
// holder mid-hop; ordering must stall (not corrupt), the view change
// must regenerate the token, and throughput must recover.
TEST(ordering_differential, token_holder_crash_recovers_at_campaign_size) {
  const auto* e = fault::scenarios::find("token_holder_crash");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->rotating_token);  // runners default it to the token
  const auto r = core::run_experiment(
      campaign_cfg(*e, gcs::ordering_kind::rotating_token));
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GT(r.stats.total_committed(), 1400u);  // recovered, not wedged
  std::uint64_t token_traffic = 0;
  for (const core::site_report& s : r.sites)
    token_traffic += s.token_ctl_sent;
  EXPECT_GT(token_traffic, 0u);  // the token actually circulated
}

// ---------- cross-ordering commit-set reconciliation ----------

// Same seed, same workload, the two orderings: the committed SEQUENCES
// legitimately differ (global sequence numbers depend on who mints), but
// the committed SETS must reconcile — the bulk of the workload commits
// under either protocol, and each run's log is internally consistent
// across sites (the safety check above). A transaction missing from one
// side must simply have certified differently under the other's order.
TEST(ordering_differential, commit_sets_reconcile_across_orderings) {
  for (const char* scenario : {"no_faults", "slow_replica"}) {
    const auto* e = fault::scenarios::find(scenario);
    ASSERT_NE(e, nullptr) << scenario;
    std::vector<std::set<std::uint64_t>> sets;
    for (const gcs::ordering_kind ord : both_orderings()) {
      auto cfg = kv_cfg(ord);
      fault::scenarios::params prm;
      prm.sites = cfg.sites;
      cfg.faults = e->make(prm);
      const auto r = core::run_experiment(cfg);
      ASSERT_TRUE(r.safety.ok) << scenario << ": " << r.safety.detail;
      ASSERT_FALSE(r.commit_logs.empty()) << scenario;
      sets.emplace_back(r.commit_logs[0].begin(), r.commit_logs[0].end());
      ASSERT_FALSE(sets.back().empty()) << scenario;
    }
    std::vector<std::uint64_t> common;
    std::set_intersection(sets[0].begin(), sets[0].end(), sets[1].begin(),
                          sets[1].end(), std::back_inserter(common));
    const std::size_t smaller = std::min(sets[0].size(), sets[1].size());
    EXPECT_GE(common.size() * 10, smaller * 9)
        << scenario << ": fixed committed " << sets[0].size()
        << ", rotating " << sets[1].size() << ", overlap " << common.size();
  }
}

// ---------- determinism: same seed => byte-identical per ordering ------

TEST(ordering_differential, rotating_token_rerun_is_deterministic) {
  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{32}}) {
    const auto a = core::run_experiment(
        kv_cfg(gcs::ordering_kind::rotating_token, batch_max));
    const auto b = core::run_experiment(
        kv_cfg(gcs::ordering_kind::rotating_token, batch_max));
    ASSERT_EQ(a.commit_logs.size(), b.commit_logs.size()) << batch_max;
    EXPECT_EQ(a.commit_logs, b.commit_logs) << batch_max;
    EXPECT_EQ(a.stats.total_committed(), b.stats.total_committed())
        << batch_max;
    EXPECT_EQ(a.responses, b.responses) << batch_max;
  }
}

// ---------- batching grid points under the rotating token ----------

// Batch atomic broadcast composes with the token: the holder's mint
// records are batch records natively, and batch_max > 1 additionally
// turns on run delivery + the pipelined commit path. Both grid points
// must run clean under the monitors, and the batched one must actually
// hand out runs.
TEST(ordering_differential, rotating_token_composes_with_batching) {
  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{32}}) {
    const auto r = core::run_experiment(
        kv_cfg(gcs::ordering_kind::rotating_token, batch_max));
    EXPECT_TRUE(r.checks.ok) << batch_max << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << batch_max << ": " << r.safety.detail;
    EXPECT_GT(r.stats.total_committed(), 0u) << batch_max;
    std::uint64_t runs = 0, token_traffic = 0;
    for (const core::site_report& s : r.sites) {
      runs += s.delivery_runs;
      token_traffic += s.token_ctl_sent;
    }
    EXPECT_GT(token_traffic, 0u) << batch_max;
    if (batch_max > 1) {
      EXPECT_GT(runs, 0u);
    }
  }
}

// The load-spreading claim itself: under the fixed sequencer the minting
// site multicasts (and works) far more than anyone else — the §5.3
// bottleneck; the rotating token spreads protocol CPU across the view.
// Assert the spread (max/min protocol-CPU ratio across sites) strictly
// shrinks, which is the effect bench_ablation_ordering quantifies.
TEST(ordering_differential, token_spreads_protocol_cpu_across_sites) {
  auto spread = [](const core::experiment_result& r) {
    double lo = 1.0, hi = 0.0;
    for (const core::site_report& s : r.sites) {
      lo = std::min(lo, s.protocol_cpu);
      hi = std::max(hi, s.protocol_cpu);
    }
    return hi / std::max(lo, 1e-9);
  };
  const auto fixed =
      core::run_experiment(kv_cfg(gcs::ordering_kind::fixed_sequencer));
  const auto token =
      core::run_experiment(kv_cfg(gcs::ordering_kind::rotating_token));
  ASSERT_TRUE(fixed.checks.ok && token.checks.ok);
  EXPECT_LT(spread(token), spread(fixed))
      << "fixed spread " << spread(fixed) << ", token spread "
      << spread(token);
}

}  // namespace
}  // namespace dbsm
