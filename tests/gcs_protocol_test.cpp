// Protocol-level unit tests of the reliable multicast and total order
// layers, driven by a scripted fake env: exact control over datagram
// delivery, loss, reordering, and timer firing.
#include <gtest/gtest.h>

#include "fake_env.hpp"
#include "gcs/rmcast.hpp"
#include "gcs/sequencer.hpp"

namespace dbsm::gcs {
namespace {

using test::fake_env;

util::shared_bytes text_payload(const std::string& s) {
  return std::make_shared<util::bytes>(s.begin(), s.end());
}

struct rmcast_fixture {
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  std::unique_ptr<reliable_mcast> rm;
  struct delivered_msg {
    node_id sender;
    std::uint64_t app_seq;
    std::string text;
    std::uint64_t last_dgram;
  };
  std::vector<delivered_msg> delivered;

  explicit rmcast_fixture(group_config c = {}) : cfg(c) {
    rm = std::make_unique<reliable_mcast>(env, cfg, std::vector<node_id>{
                                                        0, 1, 2});
    rm->set_app_handler([this](node_id sender, std::uint64_t app_seq,
                               util::shared_bytes payload,
                               std::uint64_t last_dgram) {
      delivered.push_back({sender, app_seq,
                           std::string(payload->begin(), payload->end()),
                           last_dgram});
    });
  }

  /// Crafts a DATA datagram as peer `sender` would send it.
  static std::pair<data_msg, util::shared_bytes> make_data(
      node_id sender, std::uint64_t dgram_seq, std::uint64_t app_seq,
      const std::string& text, std::uint16_t frag_idx = 0,
      std::uint16_t frag_cnt = 1) {
    data_msg m;
    m.hdr = {1, sender};
    m.dgram_seq = dgram_seq;
    m.app_seq = app_seq;
    m.frag_idx = frag_idx;
    m.frag_cnt = frag_cnt;
    m.payload = text_payload(text);
    return {m, encode(m)};
  }

  void receive(node_id sender, std::uint64_t dgram_seq,
               std::uint64_t app_seq, const std::string& text,
               std::uint16_t frag_idx = 0, std::uint16_t frag_cnt = 1) {
    auto [m, raw] = make_data(sender, dgram_seq, app_seq, text, frag_idx,
                              frag_cnt);
    rm->on_data(m, raw);
  }
};

TEST(rmcast_protocol, broadcast_self_delivers_and_transmits) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload("hello"));
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].sender, 0u);
  EXPECT_EQ(f.delivered[0].app_seq, 1u);
  EXPECT_EQ(f.delivered[0].text, "hello");
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, invalid_node);  // multicast
  const data_msg m = decode<data_msg>(out[0].payload);
  EXPECT_EQ(m.dgram_seq, 1u);
  EXPECT_EQ(m.frag_cnt, 1);
}

TEST(rmcast_protocol, large_payload_fragments) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload(std::string(2500, 'x')));  // 1024 max frag
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    const data_msg m = decode<data_msg>(out[i].payload);
    EXPECT_EQ(m.frag_idx, i);
    EXPECT_EQ(m.frag_cnt, 3);
    EXPECT_EQ(m.app_seq, 1u);
    EXPECT_EQ(m.dgram_seq, i + 1);
  }
}

TEST(rmcast_protocol, in_order_app_delivery) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 2, 2, "b");
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].text, "a");
  EXPECT_EQ(f.delivered[1].text, "b");
  EXPECT_EQ(f.rm->prefixes(), (std::vector<std::uint64_t>{0, 2, 0}));
}

TEST(rmcast_protocol, gap_blocks_delivery_until_filled) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 3, 3, "c");  // gap at 2
  EXPECT_EQ(f.delivered.size(), 1u);
  f.receive(1, 2, 2, "b");  // fills the gap
  ASSERT_EQ(f.delivered.size(), 3u);
  EXPECT_EQ(f.delivered[1].text, "b");
  EXPECT_EQ(f.delivered[2].text, "c");
}

TEST(rmcast_protocol, gap_triggers_nak_with_backoff) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 4, 4, "d");  // gaps at 2, 3
  f.env.take_outbox();
  f.env.advance(f.cfg.nak_delay + 1);
  auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1u);  // unicast to the sender
  const nak_msg nak = decode<nak_msg>(out[0].payload);
  EXPECT_EQ(nak.target_sender, 1u);
  EXPECT_EQ(nak.missing, (std::vector<std::uint64_t>{2, 3}));
  // Still missing: the next NAK fires after a doubled interval.
  f.env.advance(f.cfg.nak_delay);
  EXPECT_TRUE(f.env.take_outbox().empty());
  f.env.advance(f.cfg.nak_delay + 1);
  out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(decode<nak_msg>(out[0].payload).missing.size(), 2u);
  EXPECT_GT(f.rm->get_stats().naks_sent, 1u);
}

TEST(rmcast_protocol, nak_stops_after_gap_closes) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 3, 3, "c");
  f.receive(1, 2, 2, "b");
  f.env.take_outbox();
  f.env.advance(seconds(1));
  EXPECT_TRUE(f.env.take_outbox().empty());
}

TEST(rmcast_protocol, duplicates_are_counted_and_dropped) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 1, 1, "a");
  f.receive(1, 1, 1, "a");
  EXPECT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.rm->get_stats().duplicates, 2u);
}

TEST(rmcast_protocol, serves_retransmissions_from_send_buffer) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload("keepme"));
  f.env.take_outbox();
  nak_msg nak;
  nak.hdr = {1, 2};  // node 2 asks
  nak.target_sender = 0;
  nak.missing = {1};
  f.rm->on_nak(nak);
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 2u);
  const data_msg m = decode<data_msg>(out[0].payload);
  EXPECT_EQ(m.dgram_seq, 1u);
  EXPECT_EQ(f.rm->get_stats().retransmissions, 1u);
}

TEST(rmcast_protocol, forwards_foreign_datagrams_from_retention) {
  // Flush-time forwarding: node 0 retains node 1's datagram and serves it
  // to node 2 on request.
  rmcast_fixture f;
  f.receive(1, 1, 1, "kept");
  f.env.take_outbox();
  nak_msg nak;
  nak.hdr = {1, 2};
  nak.target_sender = 1;
  nak.missing = {1};
  f.rm->on_nak(nak);
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 2u);
  const data_msg m = decode<data_msg>(out[0].payload);
  EXPECT_EQ(m.hdr.sender, 1u);  // original sender preserved
}

TEST(rmcast_protocol, garbage_collection_frees_quota) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload("a"));
  f.rm->broadcast(text_payload("b"));
  f.env.take_outbox();
  EXPECT_GT(f.rm->quota_used(), 0u);
  f.rm->collect_garbage({2, 0, 0});  // own stream stable through seq 2
  EXPECT_EQ(f.rm->quota_used(), 0u);
}

TEST(rmcast_protocol, quota_exhaustion_blocks_then_gc_unblocks) {
  group_config cfg;
  cfg.total_buffer_msgs = 3 * 2;  // share: 2 datagrams
  rmcast_fixture f(cfg);
  f.rm->broadcast(text_payload("m1"));
  f.rm->broadcast(text_payload("m2"));
  f.rm->broadcast(text_payload("m3"));  // exceeds the share
  EXPECT_EQ(f.env.take_outbox().size(), 2u);
  EXPECT_TRUE(f.rm->blocked());
  EXPECT_EQ(f.rm->tx_backlog(), 1u);
  f.rm->collect_garbage({2, 0, 0});
  EXPECT_FALSE(f.rm->blocked());
  EXPECT_EQ(f.env.take_outbox().size(), 1u);
  EXPECT_GT(f.rm->get_stats().blocked_time, -1);
  EXPECT_EQ(f.rm->get_stats().blocked_episodes, 1u);
}

TEST(rmcast_protocol, fragments_reassemble_in_order_only) {
  rmcast_fixture f;
  // Fragments arrive out of order; the message completes when the prefix
  // reaches the last fragment.
  f.receive(1, 2, 1, "B", 1, 2);
  EXPECT_TRUE(f.delivered.empty());
  f.receive(1, 1, 1, "A", 0, 2);
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].text, "AB");
  EXPECT_EQ(f.delivered[0].last_dgram, 2u);
}

TEST(rmcast_protocol, flush_reaches_cut_and_reports) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  bool done = false;
  f.rm->ensure_up_to({0, 3, 0}, {0, 2, 0}, [&] { done = true; });
  EXPECT_FALSE(done);
  // The flush NAKs the designated source (node 2) for 2 and 3.
  auto out = f.env.take_outbox();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].to, 2u);
  const nak_msg nak = decode<nak_msg>(out[0].payload);
  EXPECT_EQ(nak.target_sender, 1u);
  EXPECT_EQ(nak.missing, (std::vector<std::uint64_t>{2, 3}));
  f.receive(1, 2, 2, "b");
  f.receive(1, 3, 3, "c");
  EXPECT_TRUE(done);
}

// ---------- total order ----------

struct order_fixture {
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  total_order to{env, cfg};
  std::vector<std::pair<std::uint64_t, std::string>> delivered;
  std::vector<util::shared_bytes> sent_batches;

  order_fixture() {
    to.set_deliver_run([this](std::vector<delivery>&& run) {
      for (const delivery& d : run)
        delivered.emplace_back(
            d.global_seq, std::string(d.payload->begin(), d.payload->end()));
    });
    to.set_send_assignments([this](util::shared_bytes batch) {
      sent_batches.push_back(std::move(batch));
    });
  }
};

assignment_record record_of(std::vector<assignment> entries) {
  return assignment_record{std::move(entries)};
}

TEST(total_order, non_sequencer_waits_for_assignments) {
  order_fixture f;
  f.to.set_sequencer(1);  // someone else
  f.to.on_user_msg(2, 1, text_payload("x"), 1);
  EXPECT_TRUE(f.delivered.empty());
  f.to.on_assignments(record_of({{2, 1, 1}}));
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].first, 1u);
}

TEST(total_order, sequencer_assignments_take_effect_via_wire_echo) {
  order_fixture f;
  f.to.set_sequencer(0);  // we are the sequencer
  f.to.on_user_msg(1, 1, text_payload("x"), 1);
  // Batch flushes on the timer; nothing delivered until the batch comes
  // back through our own reliable stream.
  f.env.advance(f.cfg.sequencer_flush + 1);
  ASSERT_EQ(f.sent_batches.size(), 1u);
  EXPECT_TRUE(f.delivered.empty());
  f.to.on_assignments(decode<assignment_record>(f.sent_batches[0]));
  ASSERT_EQ(f.delivered.size(), 1u);
}

TEST(total_order, batch_flushes_at_size_threshold) {
  order_fixture f;
  f.to.set_sequencer(0);
  for (std::uint64_t i = 1; i <= f.cfg.sequencer_batch; ++i)
    f.to.on_user_msg(1, i, text_payload("m"), i);
  // Full batch flushed without waiting for the timer.
  ASSERT_EQ(f.sent_batches.size(), 1u);
  EXPECT_EQ(decode<assignment_record>(f.sent_batches[0]).entries.size(),
            f.cfg.sequencer_batch);
}

TEST(total_order, delivery_strictly_follows_global_sequence) {
  order_fixture f;
  f.to.set_sequencer(1);
  f.to.on_user_msg(2, 1, text_payload("second"), 1);
  f.to.on_user_msg(1, 1, text_payload("first"), 1);
  // Assignments: (1,1)->1, (2,1)->2; payload for 2 arrived first.
  f.to.on_assignments(record_of({{1, 1, 1}, {2, 1, 2}}));
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].second, "first");
  EXPECT_EQ(f.delivered[1].second, "second");
}

TEST(total_order, missing_payload_stalls_subsequent_deliveries) {
  order_fixture f;
  f.to.set_sequencer(1);
  f.to.on_assignments(record_of({{1, 1, 1}, {2, 1, 2}}));
  f.to.on_user_msg(2, 1, text_payload("later"), 1);
  EXPECT_TRUE(f.delivered.empty());  // seq 1's payload still missing
  f.to.on_user_msg(1, 1, text_payload("now"), 1);
  ASSERT_EQ(f.delivered.size(), 2u);
}

TEST(total_order, install_view_delivers_backlog_deterministically) {
  // Two replicas with identical flushed state must deliver identical
  // sequences at view installation, including unassigned messages.
  auto run = [](const char* tag) {
    order_fixture f;
    f.to.set_sequencer(2);  // sequencer about to be excluded
    f.to.on_user_msg(1, 1, text_payload(std::string("u1") + tag), 5);
    f.to.on_user_msg(2, 1, text_payload("u2"), 3);
    // One wire-visible assignment for (2,1); (1,1) never got ordered.
    f.to.on_assignments(record_of({{2, 1, 1}}));
    // Old view {0,1,2} with cuts; sender 2 crashed; new view {0,1}.
    f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1});
    std::vector<std::string> texts;
    for (const auto& [seq, text] : f.delivered) texts.push_back(text);
    return texts;
  };
  const auto a = run("");
  const auto b = run("");
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2u);  // both messages survive (within the cut)
}

TEST(total_order, install_view_drops_dead_senders_beyond_cut) {
  order_fixture f;
  f.to.set_sequencer(0);
  // Message from node 2 with last fragment beyond the agreed cut.
  f.to.on_user_msg(2, 5, text_payload("ghost"), 42);
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1});
  for (const auto& [seq, text] : f.delivered) {
    EXPECT_NE(text, "ghost");
  }
  EXPECT_EQ(f.to.pending_unordered(), 0u);
}

TEST(total_order, quiesce_holds_the_flush_until_view_install) {
  // The flush-quiesce barrier directly: once a view change quiesces
  // ordering, a firing flush timer must mint nothing; the held batch
  // rolls back at install and surfaces as deterministic unassigned
  // backlog, and the continuing sequencer numbers past it.
  order_fixture f;
  f.to.set_sequencer(0);
  f.to.on_user_msg(1, 1, text_payload("held"), 1);
  f.to.quiesce();
  f.env.advance(f.cfg.sequencer_flush + 1);
  EXPECT_TRUE(f.sent_batches.empty());  // the fired timer minted nothing
  // A message completing mid-flush stays unassigned too.
  f.to.on_user_msg(2, 1, text_payload("late"), 1);
  EXPECT_TRUE(f.sent_batches.empty());
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1, 2});
  ASSERT_EQ(f.delivered.size(), 2u);  // backlog, (sender, app_seq) order
  EXPECT_EQ(f.delivered[0].second, "held");
  EXPECT_EQ(f.delivered[1].second, "late");
  f.to.set_sequencer(0);  // re-elected after the install
  f.to.on_user_msg(1, 2, text_payload("next"), 2);
  f.env.advance(f.cfg.sequencer_flush + 1);
  ASSERT_EQ(f.sent_batches.size(), 1u);
  const auto as = decode<assignment_record>(f.sent_batches[0]).entries;
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].global_seq, 3u);  // continues past the two delivered
}

TEST(total_order, view_change_rolls_back_the_open_batch) {
  // The batch-barrier path (batch mode): keys accumulated in an open
  // batch are marked assigned but unminted; a close firing mid-quiesce
  // must hold, and the install must roll the marks back so the keys are
  // delivered as plain backlog — nothing minted, nothing lost.
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  cfg.batch_max = 8;
  cfg.batch_delay = milliseconds(2);
  total_order to{env, cfg};
  std::vector<std::pair<std::uint64_t, std::string>> delivered;
  std::vector<util::shared_bytes> sent;
  to.set_deliver_run([&](std::vector<delivery>&& run) {
    for (const delivery& d : run)
      delivered.emplace_back(
          d.global_seq, std::string(d.payload->begin(), d.payload->end()));
  });
  to.set_send_batch([&](util::shared_bytes b) { sent.push_back(b); });
  to.set_sequencer(0);
  to.on_user_msg(1, 1, text_payload("a"), 1);
  to.on_user_msg(2, 1, text_payload("b"), 1);
  EXPECT_TRUE(sent.empty());  // open batch: under size, before the delay
  to.quiesce();
  env.advance(cfg.batch_delay + 1);  // close timer fires while quiesced
  EXPECT_TRUE(sent.empty());         // barrier holds: no mint mid-flush
  to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1, 2});
  ASSERT_EQ(delivered.size(), 2u);  // rolled back and delivered as backlog
  EXPECT_EQ(delivered[0].second, "a");
  EXPECT_EQ(delivered[1].second, "b");
  to.set_sequencer(0);
  to.on_user_msg(1, 2, text_payload("c"), 2);
  env.advance(cfg.batch_delay + 1);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(decode<assignment_batch>(sent[0]).base, 3u);  // numbering runs on
  to.on_assignment_batch(decode<assignment_batch>(sent[0]));
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered.back().first, 3u);
  EXPECT_EQ(delivered.back().second, "c");
}

TEST(total_order, orphan_assignments_are_skipped_consistently) {
  order_fixture f;
  f.to.set_sequencer(2);
  // The crashed sequencer ordered a message nobody holds.
  f.to.on_assignments(record_of({{2, 9, 1}, {1, 1, 2}}));
  f.to.on_user_msg(1, 1, text_payload("real"), 4);
  // Only seq 1 is missing its payload; delivery stalls.
  EXPECT_TRUE(f.delivered.empty());
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1});
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, "real");
}

}  // namespace
}  // namespace dbsm::gcs
