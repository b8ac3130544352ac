// Golden bytes of every GCS wire format: one fixed instance of each of the
// 16 datagram types (the heartbeat with and without its trailing high
// water) and of both assignment records, encoded and compared with hex
// pinned from the hand-written codec the schema-driven one replaced. Then
// each encoding must decode and re-encode to the same bytes, and every
// strict prefix of it must either decode or throw invariant_violation —
// read from the start of a buffer and, as the group reads assignment
// records, at offset 1 behind a kind byte. The same gcs/ code parses
// datagrams off real UDP sockets.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "gcs/ordering.hpp"
#include "gcs/wire.hpp"
#include "util/check.hpp"

namespace dbsm::gcs {
namespace {

util::shared_bytes text(const std::string& s) {
  return std::make_shared<util::bytes>(s.begin(), s.end());
}

std::string hex(const util::bytes& b) {
  std::string out;
  char buf[3];
  for (std::uint8_t x : b) {
    std::snprintf(buf, sizeof buf, "%02x", x);
    out += buf;
  }
  return out;
}

struct golden_case {
  std::string name;
  util::shared_bytes raw;
  /// Decodes the encoding that starts `offset` bytes into a buffer and
  /// encodes the result again.
  std::function<util::shared_bytes(const util::shared_bytes&, std::size_t)>
      reencode;
  std::string expected_hex;
};

template <class M>
golden_case make_case(std::string name, const M& m, std::string expected) {
  return {std::move(name), encode(m),
          [](const util::shared_bytes& raw, std::size_t offset) {
            return encode(decode<M>(raw, offset));
          },
          std::move(expected)};
}

std::vector<golden_case> all_cases() {
  const header hdr{.view_id = 0x01020304, .sender = 5};
  std::vector<golden_case> cases;
  {
    data_msg m;
    m.hdr = hdr;
    m.dgram_seq = 0x1122334455667788ull;
    m.app_seq = 42;
    m.frag_idx = 1;
    m.frag_cnt = 3;
    m.payload = text("abc");
    cases.push_back(make_case(
        "data", m,
        "0104030201050000008877665544332211"
        "2a000000000000000100030003000000616263"));
  }
  {
    nak_msg m;
    m.hdr = hdr;
    m.target_sender = 9;
    m.missing = {4, 0x100};
    cases.push_back(make_case("nak", m,
                              "02040302010500000009000000020004000000000000"
                              "000001000000000000"));
  }
  {
    stab_msg m;
    m.hdr = hdr;
    m.round = 12;
    m.voters_bitmap = 0b101;
    m.stable = {1, 2};
    m.min_received = {3, 4};
    cases.push_back(make_case(
        "stab", m,
        "030403020105000000"
        "0c0000000500000002000100000000000000020000000000000002000300"
        "0000000000000400000000000000"));
  }
  {
    heartbeat_msg m;
    m.hdr = hdr;
    cases.push_back(make_case("heartbeat", m, "040403020105000000"));
    m.sent_high = 77;
    cases.push_back(make_case("heartbeat_sent_high", m,
                              "0404030201050000004d00000000000000"));
  }
  {
    view_propose_msg m;
    m.hdr = hdr;
    m.new_view_id = 6;
    m.proposed_members = {0, 2};
    cases.push_back(make_case(
        "view_propose", m,
        "0504030201050000000600000002000000000002000000"));
  }
  {
    view_state_msg m;
    m.hdr = hdr;
    m.new_view_id = 6;
    m.prefixes = {10, 20};
    cases.push_back(make_case("view_state", m,
                              "060403020105000000060000000200"
                              "0a000000000000001400000000000000"));
  }
  {
    view_cut_msg m;
    m.hdr = hdr;
    m.new_view_id = 6;
    m.new_members = {0, 2};
    m.cut = {10, 20, 30};
    m.sources = {0, 2, 2};
    cases.push_back(make_case(
        "view_cut", m,
        "070403020105000000060000000200000000000200000003000a00000000"
        "00000014000000000000001e000000000000000300000000000200000002"
        "000000"));
  }
  {
    view_flush_ok_msg m;
    m.hdr = hdr;
    m.new_view_id = 6;
    cases.push_back(
        make_case("view_flush_ok", m, "08040302010500000006000000"));
  }
  {
    view_install_msg m;
    m.hdr = hdr;
    m.new_view_id = 6;
    m.new_members = {0, 2};
    m.cut = {10, 20, 30};
    cases.push_back(make_case(
        "view_install", m,
        "090403020105000000060000000200000000000200000003000a00000000000000"
        "14000000000000001e00000000000000"));
  }
  {
    join_request_msg m;
    m.hdr = hdr;
    m.incarnation = 0xabcdef;
    cases.push_back(make_case(
        "join_request", m,
        "0a0403020105000000efcdab0000000000"));
  }
  {
    join_chunk_msg m;
    m.hdr = hdr;
    m.incarnation = 3;
    m.snap_pos = 1000;
    m.chunk_idx = 1;
    m.chunk_cnt = 4;
    m.payload = text("snap");
    cases.push_back(make_case(
        "join_chunk", m,
        "0b04030201050000000300000000000000e8030000000000000100000004"
        "00000004000000736e6170"));
  }
  {
    join_chunk_ack_msg m;
    m.hdr = hdr;
    m.incarnation = 3;
    m.chunk_idx = 1;
    cases.push_back(make_case(
        "join_chunk_ack", m,
        "0c0403020105000000030000000000000001000000"));
  }
  {
    join_fwd_msg m;
    m.hdr = hdr;
    m.incarnation = 3;
    m.global_seq = 1001;
    m.orig_sender = 2;
    m.payload = text("tx");
    cases.push_back(make_case(
        "join_fwd", m,
        "0d04030201050000000300000000000000e9030000000000000200000002"
        "0000007478"));
  }
  {
    join_fwd_ack_msg m;
    m.hdr = hdr;
    m.incarnation = 3;
    m.replayed_to = 1001;
    cases.push_back(make_case(
        "join_fwd_ack", m,
        "0e04030201050000000300000000000000e903000000000000"));
  }
  {
    join_commit_msg m;
    m.hdr = hdr;
    m.incarnation = 3;
    m.commit_seq = 1002;
    m.view_id = 7;
    m.members = {0, 1, 2};
    cases.push_back(make_case(
        "join_commit", m,
        "0f04030201050000000300000000000000ea030000000000000700000003"
        "00000000000100000002000000"));
  }
  {
    join_done_msg m;
    m.hdr = hdr;
    m.incarnation = 3;
    cases.push_back(make_case("join_done", m,
                              "1004030201050000000300000000000000"));
  }
  {
    assignment_record r;
    r.entries = {{1, 10, 100}, {2, 20, 101}};
    cases.push_back(make_case(
        "assignments", r,
        "0200010000000a00000000000000640000000000000002000000140000000000"
        "00006500000000000000"));
  }
  {
    assignment_batch b;
    b.base = 4711;
    b.keys = {{2, 1}, {0, 9}};
    cases.push_back(make_case(
        "assignment_batch", b,
        "6712000000000000020002000000010000000000000000000000090000000000"
        "0000"));
  }
  return cases;
}

TEST(wire_golden, every_format_encodes_to_its_pinned_bytes) {
  for (const golden_case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(hex(*c.raw), c.expected_hex);
  }
}

/// `bytes` behind one leading kind byte, as the group wraps a record.
util::shared_bytes behind_kind_byte(const util::bytes& bytes) {
  auto out = std::make_shared<util::bytes>(1, 0x7f);
  out->insert(out->end(), bytes.begin(), bytes.end());
  return out;
}

TEST(wire_golden, decode_then_encode_reproduces_the_bytes) {
  for (const golden_case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(hex(*c.reencode(c.raw, 0)), hex(*c.raw));
    EXPECT_EQ(hex(*c.reencode(behind_kind_byte(*c.raw), 1)), hex(*c.raw));
  }
}

TEST(wire_golden, every_strict_prefix_decodes_or_throws_invariant_violation) {
  for (const golden_case& c : all_cases()) {
    for (std::size_t n = 0; n < c.raw->size(); ++n) {
      const util::bytes prefix(c.raw->begin(), c.raw->begin() + n);
      for (const std::size_t offset : {0, 1}) {
        SCOPED_TRACE(c.name + " prefix " + std::to_string(n) + " at offset " +
                     std::to_string(offset));
        try {
          c.reencode(offset == 0 ? std::make_shared<util::bytes>(prefix)
                                 : behind_kind_byte(prefix),
                     offset);
        } catch (const invariant_violation&) {
          // rejected: the only acceptable failure
        } catch (const std::exception& e) {
          ADD_FAILURE() << "unexpected exception: " << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace dbsm::gcs
