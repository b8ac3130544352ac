#include "gcs/sequencer.hpp"

#include "util/check.hpp"

namespace dbsm::gcs {

total_order::total_order(csrt::env& env, const group_config& cfg)
    : ordering(env, cfg) {}

total_order::~total_order() {
  if (batch_timer_ != 0) env_.cancel_timer(batch_timer_);
}

void total_order::set_roles(const std::vector<node_id>& members,
                            node_id lead) {
  (void)members;
  set_sequencer(lead);
}

void total_order::set_sequencer(node_id sequencer) {
  sequencer_ = sequencer;
  am_sequencer_ = sequencer == env_.self();
  if (am_sequencer_ && !quiesced_) {
    // Assign everything complete but unordered, deterministically. This
    // runs on every role update (not just takeovers): after a view change
    // the continuing sequencer must pick up messages that completed while
    // ordering was quiesced for the flush.
    for (const auto& [key, msg] : complete_) {
      if (!assigned_.count(key)) maybe_assign(key.first, key.second);
    }
    flush_batch();
  }
}

void total_order::on_complete(node_id sender, std::uint64_t app_seq) {
  if (am_sequencer_) maybe_assign(sender, app_seq);
}

void total_order::maybe_assign(node_id sender, std::uint64_t app_seq) {
  const msg_key key{sender, app_seq};
  if (assigned_.count(key)) return;
  if (batch_mode()) {
    // Batch atomic broadcast: accumulate the key; global sequences are
    // minted consecutively when the batch closes (size or delay bound).
    // Marking it assigned now keeps the sequencer-rescan from double-
    // adding it; install_view() rolls the open batch back the same way
    // it rolls back the unflushed dissemination batch.
    assigned_.insert(key);
    batch_keys_.push_back(key);
    if (batch_keys_.size() >= cfg_.batch_max) {
      close_batch();
    } else if (batch_timer_ == 0) {
      batch_timer_ = env_.set_timer(cfg_.batch_delay, [this] {
        batch_timer_ = 0;
        close_batch();
      });
    }
    return;
  }
  assignment a;
  a.sender = sender;
  a.app_seq = app_seq;
  a.global_seq = next_assign_++;
  batch_.push_back(a);
  assigned_.insert(key);
  // Note: the assignment takes effect only when the batch returns through
  // the sequencer's own reliable stream (self-delivery) — everyone,
  // including the sequencer, orders from wire-visible assignments, which
  // keeps view-change flushes consistent.
  if (batch_.size() >= cfg_.sequencer_batch) {
    flush_batch();
  } else if (batch_timer_ == 0) {
    batch_timer_ = env_.set_timer(cfg_.sequencer_flush, [this] {
      batch_timer_ = 0;
      flush_batch();
    });
  }
}

void total_order::close_batch() {
  // Same hold rule as flush_batch(): a quiesced sequencer must not mint.
  if (quiesced_) return;
  if (batch_keys_.empty()) return;
  if (batch_timer_ != 0) {
    env_.cancel_timer(batch_timer_);
    batch_timer_ = 0;
  }
  assignment_batch b;
  b.base = next_assign_;
  next_assign_ += batch_keys_.size();
  b.keys.swap(batch_keys_);
  // Like per-payload assignments, the batch takes effect only when the
  // record returns through the sequencer's own reliable stream.
  if (send_batch_) send_batch_(encode(b));
}

void total_order::flush_batch() {
  if (batch_mode()) {
    close_batch();
    return;
  }
  // Quiesced for a view change: hold the batch. Nothing in it reached the
  // wire, so install_view() rolls these assignments back cleanly and the
  // post-install rescan re-issues them under the new view.
  if (quiesced_) return;
  if (batch_.empty()) return;
  if (batch_timer_ != 0) {
    env_.cancel_timer(batch_timer_);
    batch_timer_ = 0;
  }
  assignment_record record;
  record.entries.swap(batch_);
  if (send_assignments_) send_assignments_(encode(record));
}

void total_order::rollback_unflushed() {
  // Assignments still sitting in the unflushed batch never reached the
  // wire, so no survivor (this node included) acted on them.
  for (const assignment& a : batch_) {
    assigned_.erase(msg_key{a.sender, a.app_seq});
  }
  batch_.clear();
  // Batch mode: the open (unminted) batch rolls back the same way — the
  // post-install rescan re-accumulates whatever survived the cut.
  for (const msg_key& key : batch_keys_) assigned_.erase(key);
  batch_keys_.clear();
}

void total_order::post_install(const std::vector<node_id>& new_members) {
  (void)new_members;
  batch_.clear();
  batch_keys_.clear();
  if (batch_timer_ != 0) {
    env_.cancel_timer(batch_timer_);
    batch_timer_ = 0;
  }
}

}  // namespace dbsm::gcs
