// Wire formats of the group communication protocol.
//
// Every datagram starts with: type (u8), view id (u32), sender (u32).
// DATA datagrams additionally carry two sequence spaces per sender:
//   * dgram_seq — transport-level, contiguous, drives NAK recovery,
//     stability vectors and flush cuts;
//   * app_seq / fragment indices — application messages, possibly
//     fragmented over several consecutive datagrams.
//
// Each format is described once: a message struct names its type tag
// (`type`) and lists its fields in wire order (`fields`), and the one
// schema-driven codec at the bottom of this file derives both encode()
// and decode<M>() from that list. Field encodings, by C++ type:
//   unsigned integers      — fixed width, little-endian;
//   std::vector<T>         — u16 count, then the elements;
//   util::shared_bytes     — u32 length, then the bytes (never null);
//   std::optional<T>       — trailing only: present iff bytes remain;
//   std::pair / a struct with `fields` — its members in order.
// tests/wire_golden_test.cpp pins the resulting bytes of every format.
#ifndef DBSM_GCS_WIRE_HPP
#define DBSM_GCS_WIRE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace dbsm::gcs {

enum class msg_type : std::uint8_t {
  data = 1,
  nak = 2,
  stab = 3,
  heartbeat = 4,
  view_propose = 5,
  view_state = 6,
  view_cut = 7,
  view_flush_ok = 8,
  view_install = 9,
  // Membership recovery (rejoin protocol, gcs/recovery.hpp).
  join_request = 10,
  join_chunk = 11,
  join_chunk_ack = 12,
  join_fwd = 13,
  join_fwd_ack = 14,
  join_commit = 15,
  join_done = 16,
  // Rotating-token total order (gcs/token_order.hpp).
  token = 17,
};

/// Carried by every datagram after its type tag.
struct header {
  std::uint32_t view_id = 0;
  node_id sender = 0;

  template <class S> static auto fields(S& h) {
    return std::tie(h.view_id, h.sender);
  }
};

/// The common prefix of every datagram, peeked (decode<tagged_header>)
/// to pick the full decoder.
struct tagged_header {
  msg_type type = msg_type::heartbeat;
  header hdr;

  template <class S> static auto fields(S& h) {
    return std::tie(h.type, h.hdr);
  }
};

struct data_msg {
  static constexpr msg_type type = msg_type::data;
  header hdr;
  std::uint64_t dgram_seq = 0;
  std::uint64_t app_seq = 0;
  std::uint16_t frag_idx = 0;
  std::uint16_t frag_cnt = 1;
  util::shared_bytes payload;  // fragment bytes

  template <class S> static auto fields(S& m) {
    return std::tie(m.dgram_seq, m.app_seq, m.frag_idx, m.frag_cnt,
                    m.payload);
  }
};

struct nak_msg {
  static constexpr msg_type type = msg_type::nak;
  header hdr;
  node_id target_sender = 0;  // whose stream has the gaps
  std::vector<std::uint64_t> missing;

  template <class S> static auto fields(S& m) {
    return std::tie(m.target_sender, m.missing);
  }
};

/// One gossip round contribution of the stability detection protocol
/// (Guo's S/W/M scheme, §3.4). Vectors are indexed by the member list of
/// the current view.
struct stab_msg {
  static constexpr msg_type type = msg_type::stab;
  header hdr;
  std::uint32_t round = 0;
  std::uint32_t voters_bitmap = 0;          // W, bit i = member[i] voted
  std::vector<std::uint64_t> stable;        // S
  std::vector<std::uint64_t> min_received;  // M

  template <class S> static auto fields(S& m) {
    return std::tie(m.round, m.voters_bitmap, m.stable, m.min_received);
  }
  bool valid() const { return stable.size() == min_received.size(); }
};

struct heartbeat_msg {
  static constexpr msg_type type = msg_type::heartbeat;
  header hdr;
  /// Sender's own datagram-stream high water (my_dgram_seq). Carried only
  /// when membership recovery is enabled: it lets a freshly (re)joined
  /// member discover datagrams it never saw — gaps with no later traffic
  /// to expose them — and NAK for them. Absent (and ignored) otherwise,
  /// so recovery-off runs keep the historical wire size and timing.
  std::optional<std::uint64_t> sent_high;

  template <class S> static auto fields(S& m) {
    return std::tie(m.sent_high);
  }
};

struct view_propose_msg {
  static constexpr msg_type type = msg_type::view_propose;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> proposed_members;

  template <class S> static auto fields(S& m) {
    return std::tie(m.new_view_id, m.proposed_members);
  }
};

/// Member → coordinator: per-sender contiguous receive prefixes (over the
/// OLD view's members).
struct view_state_msg {
  static constexpr msg_type type = msg_type::view_state;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<std::uint64_t> prefixes;

  template <class S> static auto fields(S& m) {
    return std::tie(m.new_view_id, m.prefixes);
  }
};

/// Coordinator → members: agreed flush cut and, per sender, a member that
/// already holds that prefix and can serve retransmissions.
struct view_cut_msg {
  static constexpr msg_type type = msg_type::view_cut;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> new_members;
  std::vector<std::uint64_t> cut;      // indexed by old-view member list
  std::vector<node_id> sources;        // who to NAK for each old member

  template <class S> static auto fields(S& m) {
    return std::tie(m.new_view_id, m.new_members, m.cut, m.sources);
  }
  bool valid() const { return cut.size() == sources.size(); }
};

struct view_flush_ok_msg {
  static constexpr msg_type type = msg_type::view_flush_ok;
  header hdr;
  std::uint32_t new_view_id = 0;

  template <class S> static auto fields(S& m) {
    return std::tie(m.new_view_id);
  }
};

struct view_install_msg {
  static constexpr msg_type type = msg_type::view_install;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> new_members;
  std::vector<std::uint64_t> cut;

  template <class S> static auto fields(S& m) {
    return std::tie(m.new_view_id, m.new_members, m.cut);
  }
};

// --- membership recovery (gcs/recovery.hpp) ---
//
// All join messages carry the joiner's `incarnation` (a fresh value per
// join attempt) so a restarted attempt never consumes stale state from an
// earlier one.

/// Joiner → everyone: request readmission with state transfer. Served by
/// the primary partition's coordinator (its lowest-id member).
struct join_request_msg {
  static constexpr msg_type type = msg_type::join_request;
  header hdr;
  std::uint64_t incarnation = 0;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation);
  }
};

/// Donor → joiner: one chunk of the state snapshot (db + certification
/// index + commit log, marshaled by the replica layer), stop-and-wait.
/// `snap_pos` is the global delivery position the snapshot captures.
struct join_chunk_msg {
  static constexpr msg_type type = msg_type::join_chunk;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t snap_pos = 0;
  std::uint32_t chunk_idx = 0;
  std::uint32_t chunk_cnt = 1;
  util::shared_bytes payload;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation, m.snap_pos, m.chunk_idx, m.chunk_cnt,
                    m.payload);
  }
};

/// Joiner → donor: snapshot chunk received.
struct join_chunk_ack_msg {
  static constexpr msg_type type = msg_type::join_chunk_ack;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint32_t chunk_idx = 0;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation, m.chunk_idx);
  }
};

/// Donor → joiner: one totally ordered delivery made after the snapshot,
/// forwarded so the joiner replays the exact committed sequence.
struct join_fwd_msg {
  static constexpr msg_type type = msg_type::join_fwd;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t global_seq = 0;
  node_id orig_sender = 0;
  util::shared_bytes payload;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation, m.global_seq, m.orig_sender, m.payload);
  }
};

/// Joiner → donor: cumulative replay progress (go-back-N ack).
struct join_fwd_ack_msg {
  static constexpr msg_type type = msg_type::join_fwd_ack;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t replayed_to = 0;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation, m.replayed_to);
  }
};

/// Donor → joiner: the merged view is installed at the members; once the
/// joiner's replay reaches `commit_seq` it installs `view_id`/`members`
/// with fresh streams and goes live.
struct join_commit_msg {
  static constexpr msg_type type = msg_type::join_commit;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t commit_seq = 0;
  std::uint32_t view_id = 0;
  std::vector<node_id> members;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation, m.commit_seq, m.view_id, m.members);
  }
};

/// Joiner → donor: live in the merged view; the donor forgets the join.
struct join_done_msg {
  static constexpr msg_type type = msg_type::join_done;
  header hdr;
  std::uint64_t incarnation = 0;

  template <class S> static auto fields(S& m) {
    return std::tie(m.incarnation);
  }
};

/// Rotating-token total order (gcs/token_order.hpp): the passer multicasts
/// the token naming the next holder. Raw control plane like heartbeats —
/// not part of any reliable stream; loss is covered by the passer's
/// retransmission (token_retry) and, terminally, by deterministic token
/// regeneration at the next view install. `token_seq` counts completed
/// hops within the view (receivers deduplicate on it); `next_assign` is
/// the first unminted global sequence, carried so the new holder continues
/// the numbering even if it has not yet received the passer's last
/// assignment record.
struct token_msg {
  static constexpr msg_type type = msg_type::token;
  header hdr;
  std::uint64_t token_seq = 0;
  std::uint64_t next_assign = 1;
  node_id holder = 0;

  template <class S> static auto fields(S& m) {
    return std::tie(m.token_seq, m.next_assign, m.holder);
  }
};

// --- the codec ---

namespace codec {

template <class T> inline constexpr bool is_vector = false;
template <class T> inline constexpr bool is_vector<std::vector<T>> = true;
template <class T> inline constexpr bool is_optional = false;
template <class T> inline constexpr bool is_optional<std::optional<T>> = true;
template <class T> inline constexpr bool is_pair = false;
template <class A, class B>
inline constexpr bool is_pair<std::pair<A, B>> = true;

/// A struct that lists its fields.
template <class T>
concept record = requires(T& t) { T::fields(t); };

/// A datagram: a record with a static type tag, preceded on the wire by
/// that tag and its `hdr`. (tagged_header's non-static `type` member does
/// not qualify: it is the peek, not a message.)
template <class T>
concept message =
    record<T> && std::is_same_v<decltype(T::type), const msg_type>;

/// Stands in for util::buffer_writer to measure an encoding exactly.
struct size_counter {
  std::size_t n = 0;
  void put_u8(std::uint8_t) { n += 1; }
  void put_u16(std::uint16_t) { n += 2; }
  void put_u32(std::uint32_t) { n += 4; }
  void put_u64(std::uint64_t) { n += 8; }
  void put_bytes(const std::uint8_t*, std::size_t len) { n += len; }
};

/// Writes `v` to `w`: a util::buffer_writer, or a size_counter.
template <class W, class T>
void put(W& w, const T& v) {
  if constexpr (record<T>) {
    // A record's cross-field check (`valid()`), if it declares one.
    if constexpr (requires { v.valid(); }) DBSM_CHECK(v.valid());
    if constexpr (message<T>) put(w, tagged_header{T::type, v.hdr});
    std::apply([&](const auto&... f) { (put(w, f), ...); }, T::fields(v));
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(std::is_unsigned_v<T>);
    if constexpr (sizeof(T) == 1) w.put_u8(v);
    if constexpr (sizeof(T) == 2) w.put_u16(v);
    if constexpr (sizeof(T) == 4) w.put_u32(v);
    if constexpr (sizeof(T) == 8) w.put_u64(v);
  } else if constexpr (std::is_same_v<T, util::shared_bytes>) {
    DBSM_CHECK(v != nullptr);
    DBSM_CHECK_MSG(v->size() <= 0xffffffffu,
                   "payload of " << v->size() << " bytes exceeds u32 length");
    w.put_u32(static_cast<std::uint32_t>(v->size()));
    w.put_bytes(v->data(), v->size());
  } else if constexpr (is_vector<T>) {
    DBSM_CHECK_MSG(v.size() <= 0xffff,
                   "vector of " << v.size() << " entries exceeds u16 count");
    w.put_u16(static_cast<std::uint16_t>(v.size()));
    for (const auto& e : v) put(w, e);
  } else if constexpr (is_optional<T>) {
    if (v) put(w, *v);
  } else {
    static_assert(is_pair<T>, "no wire encoding for this field type");
    put(w, v.first);
    put(w, v.second);
  }
}

template <class T>
std::size_t size_of(const T& v) {
  size_counter c;
  put(c, v);
  return c.n;
}

template <class T>
void get(util::buffer_reader& r, T& v) {
  if constexpr (record<T>) {
    if constexpr (message<T>) {
      tagged_header h;
      get(r, h);
      DBSM_CHECK_MSG(h.type == T::type,
                     "wire type mismatch: got " << static_cast<int>(h.type));
      v.hdr = h.hdr;
    }
    std::apply([&](auto&... f) { (get(r, f), ...); }, T::fields(v));
    if constexpr (requires { v.valid(); }) DBSM_CHECK(v.valid());
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    get(r, raw);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) v = r.get_u8();
    if constexpr (sizeof(T) == 2) v = r.get_u16();
    if constexpr (sizeof(T) == 4) v = r.get_u32();
    if constexpr (sizeof(T) == 8) v = r.get_u64();
  } else if constexpr (std::is_same_v<T, util::shared_bytes>) {
    const std::uint32_t len = r.get_u32();
    // Bound the claimed length by the datagram before allocating for it.
    DBSM_CHECK_MSG(len <= r.remaining(),
                   "payload length " << len << " exceeds the "
                                     << r.remaining() << " bytes left");
    auto bytes = std::make_shared<util::bytes>(len);
    r.get_bytes(bytes->data(), len);
    v = std::move(bytes);
  } else if constexpr (is_vector<T>) {
    const std::uint16_t n = r.get_u16();
    // Every element takes at least size_of(value_type{}) bytes.
    DBSM_CHECK_MSG(
        n <= r.remaining() / size_of(typename T::value_type{}),
        "count " << n << " exceeds the " << r.remaining() << " bytes left");
    v.resize(n);
    for (auto& e : v) get(r, e);
  } else if constexpr (is_optional<T>) {
    if (r.remaining() >= size_of(typename T::value_type{}))
      get(r, v.emplace());
  } else {
    get(r, v.first);
    get(r, v.second);
  }
}

}  // namespace codec

/// Encodes a message (tag, header, fields) or a headerless record into a
/// buffer reserved at its exact size.
template <codec::record M>
util::shared_bytes encode(const M& m) {
  util::buffer_writer w(codec::size_of(m));
  codec::put(w, m);
  return w.take();
}

/// Decodes a message or record; throws dbsm::invariant_violation on
/// malformed input (wrong type tag, truncation, inconsistent sizes).
template <codec::record M>
M decode(const util::shared_bytes& raw) {
  util::buffer_reader r(raw);
  M m;
  codec::get(r, m);
  return m;
}

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_WIRE_HPP
