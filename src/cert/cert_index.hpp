// Inverted last-writer index over the retained certification history.
//
// Maps every identifier appearing in a committed write set to the delivery
// position of its most recent committed writer. Identifiers keep the exact
// equality semantics of the merge-scan certifier: tuple ids and granule ids
// live in two parallel maps split by the granule bit, so
//   * a point write probes the tuple index (write-write, first-committer-
//     wins — granule markers never collide with tuple ids);
//   * an escalated granule read probes the granule index, which catches
//     point writes inside its granule because write sets advertise the
//     granule marker of every written tuple (§3.3 escalation), and catches
//     committed granule writes for the same reason.
// Entries whose writer slid out of the history window are removed lazily
// (see sharded_certifier): a stale entry is harmless for decisions because its
// position precedes every snapshot that survives the conservative
// pre-window abort rule, so it can never satisfy `pos > begin_pos`.
#ifndef DBSM_CERT_CERT_INDEX_HPP
#define DBSM_CERT_CERT_INDEX_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "db/item.hpp"

namespace dbsm::cert {

class last_writer_index {
 public:
  /// Records `pos` as the last committed writer of every id in
  /// `write_set`. Positions are strictly increasing across calls.
  void note_commit(const std::vector<db::item_id>& write_set,
                   std::uint64_t pos);

  /// Last committed delivery position that wrote `id`, or 0 if no retained
  /// committed write set contains it (positions start at 1).
  std::uint64_t last_writer(db::item_id id) const {
    const auto& m = map_for(id);
    const auto it = m.find(id);
    return it == m.end() ? 0 : it->second;
  }

  /// Drops every id of `write_set` whose recorded last writer is exactly
  /// `pos` (nothing newer overwrote it) — called when the committed entry
  /// at `pos` leaves the history window.
  void forget_commit(const std::vector<db::item_id>& write_set,
                     std::uint64_t pos);

  /// Live index entries across both maps (memory probe for tests/bench).
  std::size_t size() const { return tuples_.size() + granules_.size(); }

 private:
  std::unordered_map<db::item_id, std::uint64_t>& map_for(db::item_id id) {
    return db::is_granule(id) ? granules_ : tuples_;
  }
  const std::unordered_map<db::item_id, std::uint64_t>& map_for(
      db::item_id id) const {
    return db::is_granule(id) ? granules_ : tuples_;
  }

  std::unordered_map<db::item_id, std::uint64_t> tuples_;
  std::unordered_map<db::item_id, std::uint64_t> granules_;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_CERT_INDEX_HPP
