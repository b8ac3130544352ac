// Integration tests of the full GCS stack (reliable multicast + stability
// + total order + membership) over the simulated LAN: atomic-multicast
// semantics under no faults, message loss, sender blocking, and crashes
// with view changes.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "csrt/sim_env.hpp"
#include "gcs/group.hpp"
#include "net/lan.hpp"
#include "net/loss_model.hpp"
#include "net/udp_transport.hpp"
#include "sim/simulator.hpp"

namespace dbsm::gcs {
namespace {

struct delivery {
  node_id sender;
  std::uint64_t seq;
  std::string text;
};

struct group_harness {
  sim::simulator s;
  std::unique_ptr<net::lan> lan;
  std::vector<std::unique_ptr<csrt::cpu_pool>> cpus;
  std::vector<std::unique_ptr<net::udp_transport>> transports;
  std::vector<std::unique_ptr<csrt::sim_env>> envs;
  std::vector<std::unique_ptr<group>> groups;
  std::vector<std::vector<delivery>> delivered;
  std::vector<std::vector<std::uint32_t>> views;

  explicit group_harness(unsigned n, group_config cfg = {}) {
    lan = std::make_unique<net::lan>(s, net::lan_config{}, util::rng(7));
    std::vector<node_id> members;
    for (unsigned i = 0; i < n; ++i) members.push_back(lan->add_host());
    cfg.members = members;
    delivered.resize(n);
    views.resize(n);
    for (unsigned i = 0; i < n; ++i) {
      cpus.push_back(std::make_unique<csrt::cpu_pool>(s, 1));
      transports.push_back(std::make_unique<net::udp_transport>(*lan, i));
      csrt::sim_env::config ecfg;
      ecfg.self = i;
      ecfg.peers = members;
      envs.push_back(std::make_unique<csrt::sim_env>(
          s, *cpus.back(), *transports.back(), ecfg,
          util::rng(100 + i)));
      transports.back()->attach(*envs.back());
      groups.push_back(std::make_unique<group>(*envs.back(), cfg));
      groups.back()->set_deliver_run(
          [this, i](std::vector<gcs::delivery>&& run) {
            for (const gcs::delivery& d : run)
              delivered[i].push_back(
                  {d.sender, d.global_seq,
                   std::string(d.payload->begin(), d.payload->end())});
          });
      groups.back()->set_view_handler(
          [this, i](const view& v) { views[i].push_back(v.id); });
    }
  }

  void start() {
    for (auto& g : groups) g->start();
  }

  void send(unsigned from, const std::string& text) {
    auto data = std::make_shared<util::bytes>(text.begin(), text.end());
    groups[from]->submit(data);
  }

  /// Checks the atomic multicast contract on what was delivered.
  void expect_consistent(unsigned expected_count) {
    for (unsigned i = 0; i < delivered.size(); ++i) {
      ASSERT_EQ(delivered[i].size(), expected_count) << "node " << i;
      for (unsigned k = 0; k < delivered[i].size(); ++k) {
        EXPECT_EQ(delivered[i][k].seq, k + 1) << "node " << i;
        EXPECT_EQ(delivered[i][k].sender, delivered[0][k].sender);
        EXPECT_EQ(delivered[i][k].text, delivered[0][k].text);
      }
    }
  }
};

TEST(gcs_integration, total_order_basic) {
  group_harness h(3);
  h.start();
  h.s.schedule_at(milliseconds(10), [&] {
    h.send(0, "a0");
    h.send(1, "b0");
    h.send(2, "c0");
  });
  h.s.schedule_at(milliseconds(12), [&] {
    h.send(1, "b1");
    h.send(0, "a1");
  });
  h.s.run_until(seconds(2));
  h.expect_consistent(5);
}

TEST(gcs_integration, large_messages_fragment_and_reassemble) {
  group_harness h(3);
  h.start();
  std::string big(5000, 'x');
  big[0] = 'H';
  big[4999] = 'T';
  h.s.schedule_at(milliseconds(10), [&] { h.send(0, big); });
  h.s.run_until(seconds(2));
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_EQ(h.delivered[i].size(), 1u);
    EXPECT_EQ(h.delivered[i][0].text.size(), 5000u);
    EXPECT_EQ(h.delivered[i][0].text[0], 'H');
    EXPECT_EQ(h.delivered[i][0].text[4999], 'T');
  }
}

TEST(gcs_integration, survives_random_loss) {
  group_harness h(3);
  for (unsigned i = 0; i < 3; ++i)
    h.lan->set_rx_loss(i, net::random_loss(0.10));
  h.start();
  const unsigned burst = 60;
  for (unsigned k = 0; k < burst; ++k) {
    h.s.schedule_at(milliseconds(10 + k * 3), [&h, k] {
      h.send(k % 3, "msg" + std::to_string(k));
    });
  }
  h.s.run_until(seconds(20));
  h.expect_consistent(burst);
  // Recovery machinery actually engaged.
  std::uint64_t naks = 0;
  for (auto& g : h.groups) naks += g->rmcast_stats().naks_sent;
  EXPECT_GT(naks, 0u);
}

TEST(gcs_integration, stability_garbage_collects) {
  group_harness h(3);
  h.start();
  for (unsigned k = 0; k < 20; ++k) {
    h.s.schedule_at(milliseconds(10 + k), [&h, k] { h.send(0, "x"); });
  }
  h.s.run_until(seconds(3));
  for (auto& g : h.groups) {
    EXPECT_GT(g->stability_rounds(), 0u);
  }
  // After stability catches up, the sender's quota drains back to zero.
  EXPECT_EQ(h.groups[0]->quota_used(), 0u);
}

TEST(gcs_integration, tiny_buffer_blocks_sender_then_recovers) {
  group_config cfg;
  cfg.total_buffer_msgs = 3 * 2;      // share of 2 datagrams per member
  cfg.total_buffer_bytes = 3 * 1200;  // share of ~1.2 KB per member
  group_harness h(3, cfg);
  h.start();
  std::string payload(900, 'p');
  for (unsigned k = 0; k < 12; ++k) {
    h.s.schedule_at(milliseconds(10), [&h, payload] { h.send(0, payload); });
  }
  h.s.run_until(seconds(10));
  h.expect_consistent(12);
  EXPECT_GT(h.groups[0]->rmcast_stats().blocked_episodes, 0u);
  EXPECT_GT(h.groups[0]->rmcast_stats().blocked_time, 0);
}

TEST(gcs_integration, crash_triggers_view_change_and_sequencer_handoff) {
  group_harness h(3);
  h.start();
  // Node 0 is the initial sequencer. Traffic, then crash it.
  for (unsigned k = 0; k < 10; ++k) {
    h.s.schedule_at(milliseconds(10 + k * 2), [&h, k] {
      h.send(k % 3, "pre" + std::to_string(k));
    });
  }
  h.s.schedule_at(milliseconds(100), [&] { h.lan->isolate(0); });
  // Post-crash traffic from survivors.
  for (unsigned k = 0; k < 6; ++k) {
    h.s.schedule_at(milliseconds(800 + k * 5), [&h, k] {
      h.send(1 + (k % 2), "post" + std::to_string(k));
    });
  }
  h.s.run_until(seconds(8));

  // Survivors installed a view excluding node 0 and elected node 1.
  for (unsigned i = 1; i <= 2; ++i) {
    ASSERT_FALSE(h.views[i].empty()) << "node " << i;
    EXPECT_EQ(h.groups[i]->current_view().members,
              (std::vector<node_id>{1, 2}));
    EXPECT_EQ(h.groups[i]->current_view().sequencer(), 1u);
  }
  // Survivors delivered identical sequences including post-crash traffic.
  ASSERT_EQ(h.delivered[1].size(), h.delivered[2].size());
  for (unsigned k = 0; k < h.delivered[1].size(); ++k) {
    EXPECT_EQ(h.delivered[1][k].text, h.delivered[2][k].text);
    EXPECT_EQ(h.delivered[1][k].seq, h.delivered[2][k].seq);
  }
  // All post-crash messages made it.
  unsigned post = 0;
  for (const auto& d : h.delivered[1])
    if (d.text.rfind("post", 0) == 0) ++post;
  EXPECT_EQ(post, 6u);
}

TEST(gcs_integration, crash_during_loss_stays_consistent) {
  group_harness h(4);
  for (unsigned i = 0; i < 4; ++i)
    h.lan->set_rx_loss(i, net::random_loss(0.05));
  h.start();
  for (unsigned k = 0; k < 40; ++k) {
    h.s.schedule_at(milliseconds(10 + k * 4), [&h, k] {
      h.send(k % 4, "m" + std::to_string(k));
    });
  }
  h.s.schedule_at(milliseconds(90), [&] { h.lan->isolate(2); });
  h.s.run_until(seconds(20));

  // Consistency among survivors 0,1,3: same prefix (all delivered the
  // same total order; lengths can only differ by in-flight tails, but by
  // 20s everything should be flushed).
  const auto& ref = h.delivered[0];
  for (unsigned i : {1u, 3u}) {
    ASSERT_EQ(h.delivered[i].size(), ref.size()) << "node " << i;
    for (unsigned k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(h.delivered[i][k].text, ref[k].text);
    }
  }
}

TEST(gcs_integration, deterministic_runs) {
  auto run = [] {
    group_harness h(3);
    h.start();
    for (unsigned k = 0; k < 15; ++k) {
      h.s.schedule_at(milliseconds(10 + k), [&h, k] {
        h.send(k % 3, "d" + std::to_string(k));
      });
    }
    h.s.run_until(seconds(2));
    std::string log;
    for (const auto& d : h.delivered[0]) log += d.text + ";";
    return log;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dbsm::gcs
