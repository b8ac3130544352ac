#include "gcs/ordering.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::gcs {

ordering::ordering(csrt::env& env, const group_config& cfg)
    : env_(env), cfg_(cfg) {}

ordering::~ordering() = default;

void ordering::start_at(std::uint64_t next) {
  DBSM_CHECK(complete_.empty() && order_.empty() && assigned_.empty());
  DBSM_CHECK(next >= 1);
  next_deliver_ = next;
  next_assign_ = next;
}

void ordering::quiesce() { quiesced_ = true; }

void ordering::halt_delivery() { halted_ = true; }

void ordering::on_user_msg(node_id sender, std::uint64_t app_seq,
                           util::shared_bytes payload,
                           std::uint64_t last_dgram) {
  const msg_key key{sender, app_seq};
  complete_.emplace(key, pending_msg{std::move(payload), last_dgram});
  if (!quiesced_) on_complete(sender, app_seq);
  try_deliver();
}

void ordering::on_assignments(const assignment_record& record) {
  for (const assignment& a : record.entries) {
    const msg_key key{a.sender, a.app_seq};
    order_.emplace(a.global_seq, key);
    assigned_.insert(key);
    if (a.global_seq >= next_assign_) next_assign_ = a.global_seq + 1;
  }
  try_deliver();
}

void ordering::on_assignment_batch(const assignment_batch& batch) {
  std::uint64_t seq = batch.base;
  for (const auto& [sender, app_seq] : batch.keys) {
    const msg_key key{sender, app_seq};
    order_.emplace(seq, key);
    assigned_.insert(key);
    ++seq;
  }
  if (seq > next_assign_) next_assign_ = seq;
  try_deliver();
}

void ordering::try_deliver() {
  if (halted_) return;
  // A run is flushed each time it reaches batch_max payloads, so at the
  // default (1) every payload reaches the application before the next one
  // is looked up. State transitions per payload do not depend on where
  // run boundaries fall (they differ per site with arrival timing); only
  // the consumer's amortized CPU does.
  std::vector<delivery> run;
  auto it = order_.find(next_deliver_);
  while (it != order_.end()) {
    auto mit = complete_.find(it->second);
    if (mit == complete_.end()) break;  // payload not yet received
    const msg_key key = it->second;
    pending_msg msg = std::move(mit->second);
    complete_.erase(mit);
    order_.erase(it);
    assigned_.erase(key);
    run.push_back({key.first, next_deliver_++, std::move(msg.payload)});
    if (run.size() >= cfg_.batch_max) {
      std::vector<delivery> full = std::exchange(run, {});
      if (deliver_run_) deliver_run_(std::move(full));
    }
    it = order_.find(next_deliver_);
  }
  if (!run.empty() && deliver_run_) deliver_run_(std::move(run));
}

void ordering::deliver_one(node_id sender, util::shared_bytes payload) {
  std::vector<delivery> run;
  run.push_back({sender, next_deliver_++, std::move(payload)});
  if (deliver_run_) deliver_run_(std::move(run));
}

void ordering::install_view(const std::vector<node_id>& old_members,
                            const std::vector<std::uint64_t>& cut,
                            const std::vector<node_id>& new_members) {
  DBSM_CHECK(old_members.size() == cut.size());
  quiesced_ = false;  // the flush is over; ordering resumes in the new view
  // Roll back mint state that never reached the wire, so no survivor (this
  // node included) acted on it.
  rollback_unflushed();
  auto cut_of = [&](node_id n) -> std::uint64_t {
    const auto it = std::find(old_members.begin(), old_members.end(), n);
    if (it == old_members.end()) return 0;
    return cut[static_cast<std::size_t>(it - old_members.begin())];
  };
  auto survives = [&](node_id n) {
    return std::binary_search(new_members.begin(), new_members.end(), n);
  };

  // 1. Drop messages of failed senders beyond the cut (no survivor holds
  //    their remaining fragments).
  for (auto it = complete_.begin(); it != complete_.end();) {
    const node_id sender = it->first.first;
    if (!survives(sender) && it->second.last_dgram > cut_of(sender)) {
      assigned_.erase(it->first);
      it = complete_.erase(it);
    } else {
      ++it;
    }
  }

  // 2. Walk the assignment sequence; deliver what survives, skip orphaned
  //    assignments. Every survivor has the same state, so this is
  //    deterministic and identical group-wide.
  std::uint64_t last_assigned = next_assign_ - 1;
  for (auto it = order_.begin(); it != order_.end();) {
    auto mit = complete_.find(it->second);
    if (mit != complete_.end()) {
      pending_msg msg = std::move(mit->second);
      const msg_key key = it->second;
      complete_.erase(mit);
      assigned_.erase(key);
      last_assigned = std::max(last_assigned, it->first);
      it = order_.erase(it);
      deliver_one(key.first, std::move(msg.payload));
    } else {
      // Orphan: assigned by a crashed minter to a message nobody holds.
      last_assigned = std::max(last_assigned, it->first);
      assigned_.erase(it->second);
      it = order_.erase(it);
    }
  }

  // 3. Deliver remaining complete-but-unassigned messages within the cut
  //    in deterministic (sender, app_seq) order.
  for (auto it = complete_.begin(); it != complete_.end();) {
    if (it->second.last_dgram <= cut_of(it->first.first)) {
      const msg_key key = it->first;
      pending_msg msg = std::move(it->second);
      it = complete_.erase(it);
      deliver_one(key.first, std::move(msg.payload));
    } else {
      ++it;
    }
  }

  // Renumber: the new minter continues after everything delivered.
  next_assign_ = std::max(last_assigned + 1, next_deliver_);
  post_install(new_members);
}

}  // namespace dbsm::gcs
