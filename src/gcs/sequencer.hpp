// Total order via fixed sequencer (§3.4): "one of the sites issues
// sequence numbers for messages. Other sites buffer and deliver messages
// according to the sequence numbers. View synchrony ensures that a single
// sequencer site is easily chosen and replaced when it fails."
//
// The sequencer assigns a global sequence number to every complete
// application message it receives (its own included) and disseminates the
// assignments — batched — through its own reliable multicast stream, so
// ordering information is itself reliable and flow-controlled. This makes
// the sequencer multicast far more than anyone else, which is precisely the
// §5.3 bottleneck the paper diagnoses.
//
// This is the one implementation of the gcs::ordering seam
// (gcs/ordering.hpp); gcs::group constructs it directly.
#ifndef DBSM_GCS_SEQUENCER_HPP
#define DBSM_GCS_SEQUENCER_HPP

#include <vector>

#include "gcs/ordering.hpp"

namespace dbsm::gcs {

class total_order : public ordering {
 public:
  total_order(csrt::env& env, const group_config& cfg);
  ~total_order() override;  // cancels the batch timer (mid-run teardown)

  /// The seam role update: the fixed sequencer's minting site is the view
  /// lead (its lowest-id member); the member list itself is irrelevant.
  void set_roles(const std::vector<node_id>& members, node_id lead) override;

  /// Updates the sequencer role (at start and at every view change). When
  /// this node is the sequencer it (re)assigns every complete-but-unordered
  /// message — including ones that arrived while ordering was quiesced for
  /// a view change. (Public for direct protocol unit tests; the group goes
  /// through set_roles().)
  void set_sequencer(node_id sequencer);

 protected:
  void on_complete(node_id sender, std::uint64_t app_seq) override;
  void rollback_unflushed() override;
  void post_install(const std::vector<node_id>& new_members) override;

 private:
  void flush_batch();
  void close_batch();
  void maybe_assign(node_id sender, std::uint64_t app_seq);
  bool batch_mode() const { return cfg_.batch_max > 1; }

  node_id sequencer_ = invalid_node;
  bool am_sequencer_ = false;

  std::vector<assignment> batch_;
  /// Batch mode: keys accumulated for the open batch. They are marked
  /// assigned (so the rescan cannot double-add them) but their global
  /// sequences are minted only when the batch closes.
  std::vector<msg_key> batch_keys_;
  csrt::timer_id batch_timer_ = 0;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_SEQUENCER_HPP
