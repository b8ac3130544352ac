// Decoders facing hostile bytes. The gcs/ codec also parses datagrams off
// real UDP sockets (csrt/native_env) and cert::decode_txn parses whatever
// the group delivers, so a length or count field claiming more than the
// buffer holds must be rejected with invariant_violation before anything
// is allocated for it — not zero-fill gigabytes, not throw bad_alloc. And
// a datagram whose type tag names no format must not be read at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cert/txn_codec.hpp"
#include "fake_env.hpp"
#include "gcs/group.hpp"
#include "gcs/wire.hpp"
#include "util/check.hpp"

namespace dbsm {
namespace {

/// Copy of `raw` with the u32 at `offset` replaced by `value`.
util::shared_bytes patch_u32(const util::shared_bytes& raw,
                             std::size_t offset, std::uint32_t value) {
  auto out = std::make_shared<util::bytes>(*raw);
  for (int i = 0; i < 4; ++i)
    (*out)[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  return out;
}

/// Encodes `m` with an empty payload, then claims a 2^32-1 byte payload:
/// the length is the datagram's last field.
template <class M>
void expect_huge_payload_rejected(M m) {
  m.payload = std::make_shared<util::bytes>();
  const util::shared_bytes raw = gcs::encode(m);
  const auto hostile = patch_u32(raw, raw->size() - 4, 0xffffffffu);
  EXPECT_THROW(gcs::decode<M>(hostile), invariant_violation);
}

TEST(hostile_wire, payload_length_beyond_the_datagram_is_rejected) {
  expect_huge_payload_rejected(gcs::data_msg{});
  expect_huge_payload_rejected(gcs::join_chunk_msg{});
  expect_huge_payload_rejected(gcs::join_fwd_msg{});
}

TEST(hostile_wire, vector_count_beyond_the_datagram_is_rejected) {
  gcs::nak_msg m;
  m.missing = {1};
  const util::shared_bytes raw = gcs::encode(m);
  // The count is the u16 just before the single 8-byte element.
  auto hostile = std::make_shared<util::bytes>(*raw);
  (*hostile)[raw->size() - 10] = 0xff;
  (*hostile)[raw->size() - 9] = 0xff;
  EXPECT_THROW(gcs::decode<gcs::nak_msg>(hostile), invariant_violation);
}

TEST(hostile_wire, encode_refuses_counts_the_u16_cannot_carry) {
  gcs::nak_msg m;
  m.missing.assign(0x10000, 1);
  EXPECT_THROW(gcs::encode(m), invariant_violation);
}

/// A bare 9-byte datagram: `tag`, then a header from site 1 naming view
/// 99, a view the receiving member never installed.
util::shared_bytes bare_header(std::uint8_t tag) {
  util::buffer_writer w;
  w.put_u8(tag);
  w.put_u32(99);  // view id
  w.put_u32(1);   // sender
  return w.take();
}

/// Delivers bare_header(tag) to a live member of {0, 1, 2}; true iff the
/// member concluded it was voted out (and stalled).
bool excluded_by(std::uint8_t tag) {
  test::fake_env env{0, {0, 1, 2}};
  gcs::group_config cfg;
  cfg.members = {0, 1, 2};
  gcs::group g{env, cfg};
  bool excluded = false;
  g.set_excluded_handler([&] { excluded = true; });
  g.start();
  env.deliver(1, bare_header(tag));
  return excluded;
}

TEST(hostile_dispatch, unknown_type_tags_are_dropped_before_the_header) {
  // Believing the view id of a tag that names no format (0, the retired
  // 17, 18-255) would make membership infer a missed exclusion.
  for (const int tag : {0, 17, 18, 200, 255}) {
    EXPECT_FALSE(excluded_by(static_cast<std::uint8_t>(tag))) << tag;
  }
  // The same header under a known tag (heartbeat) does reveal one.
  EXPECT_TRUE(excluded_by(static_cast<std::uint8_t>(gcs::msg_type::heartbeat)));
}

/// A 40-byte txn buffer whose read-set (or write-set) count is 2^32-1.
util::shared_bytes hostile_txn(bool write_set) {
  util::buffer_writer w;
  w.put_u64(1);   // id
  w.put_u16(0);   // class
  w.put_u32(0);   // origin
  w.put_u64(0);   // begin_pos
  w.put_u32(write_set ? 0 : 0xffffffffu);  // read-set count
  if (write_set) w.put_u32(0xffffffffu);   // write-set count
  w.put_padding(40 - w.size());
  return w.take();
}

TEST(hostile_txn, item_counts_beyond_the_buffer_throw_invariant_violation) {
  EXPECT_THROW(cert::decode_txn(hostile_txn(false)), invariant_violation);
  EXPECT_THROW(cert::decode_txn(hostile_txn(true)), invariant_violation);
}

}  // namespace
}  // namespace dbsm
