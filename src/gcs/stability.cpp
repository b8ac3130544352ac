#include "gcs/stability.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace dbsm::gcs {

stability_tracker::stability_tracker(std::vector<node_id> members,
                                     node_id self,
                                     std::vector<std::uint64_t> initial_stable)
    : members_(std::move(members)), self_(self) {
  DBSM_CHECK(!members_.empty());
  DBSM_CHECK_MSG(members_.size() <= 32, "bitmap limits groups to 32 members");
  DBSM_CHECK(std::is_sorted(members_.begin(), members_.end()));
  const auto it = std::find(members_.begin(), members_.end(), self_);
  DBSM_CHECK_MSG(it != members_.end(), "self not in member list");
  self_index_ = static_cast<std::size_t>(it - members_.begin());
  all_voted_mask_ = members_.size() == 32
                        ? ~0u
                        : ((1u << members_.size()) - 1u);
  if (initial_stable.empty()) initial_stable.assign(members_.size(), 0);
  DBSM_CHECK(initial_stable.size() == members_.size());
  stable_ = std::move(initial_stable);
  local_prefix_ = stable_;
  // No vote yet: M starts at the identity of min-merge so the first real
  // vote (with current prefixes) defines it.
  min_recv_.assign(members_.size(),
                   std::numeric_limits<std::uint64_t>::max());
  voters_ = 0;
}

void stability_tracker::set_local_prefixes(
    std::vector<std::uint64_t> prefixes) {
  DBSM_CHECK(prefixes.size() == members_.size());
  // Re-voting with unchanged prefixes is idempotent — the voter bit is
  // already set and the vote only min-merges — so skip the merge work.
  // State-identical always; the saving matters when ticks outpace
  // deliveries (batched commit path).
  if ((voters_ & (1u << self_index_)) != 0 && prefixes == local_prefix_)
    return;
  local_prefix_ = std::move(prefixes);
  vote();
}

void stability_tracker::vote() {
  // First vote in a round contributes the current prefixes; once the vote
  // is out it must not be raised (others may already have merged it), so
  // re-votes only min-merge.
  voters_ |= 1u << self_index_;
  for (std::size_t i = 0; i < members_.size(); ++i)
    min_recv_[i] = std::min(min_recv_[i], local_prefix_[i]);
}

bool stability_tracker::try_complete() {
  if (voters_ != all_voted_mask_) return false;
  bool advanced = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (min_recv_[i] > stable_[i]) {
      stable_[i] = min_recv_[i];
      advanced = true;
    }
  }
  ++completed_;
  ++round_;
  // Start the next round with our own fresh vote.
  voters_ = 1u << self_index_;
  min_recv_ = local_prefix_;
  return advanced;
}

bool stability_tracker::merge(const stab_msg& m) {
  DBSM_CHECK(m.stable.size() == members_.size());
  bool advanced = false;
  // S advances by pointwise max regardless of rounds.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (m.stable[i] > stable_[i]) {
      stable_[i] = m.stable[i];
      advanced = true;
    }
  }
  if (m.round > round_) {
    // Adopt the newer round.
    round_ = m.round;
    voters_ = m.voters_bitmap;
    min_recv_ = m.min_received;
    vote();
  } else if (m.round == round_) {
    voters_ |= m.voters_bitmap;
    for (std::size_t i = 0; i < members_.size(); ++i)
      min_recv_[i] = std::min(min_recv_[i], m.min_received[i]);
    vote();
  }
  // else: stale round, S already merged.
  if (try_complete()) advanced = true;
  return advanced;
}

stab_msg stability_tracker::make_gossip(std::uint32_t view_id) const {
  stab_msg m;
  m.hdr = {view_id, self_};
  m.round = round_;
  m.voters_bitmap = voters_;
  m.stable = stable_;
  m.min_received = min_recv_;
  return m;
}

}  // namespace dbsm::gcs
