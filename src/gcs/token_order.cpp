#include "gcs/token_order.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dbsm::gcs {

namespace {
/// Keys per minted assignment_batch record. The wire format caps the key
/// count at u16; chunking well below that also keeps each record inside a
/// few transport fragments.
constexpr std::size_t mint_chunk = 2048;
}  // namespace

token_order::token_order(csrt::env& env, const group_config& cfg)
    : ordering(env, cfg) {}

token_order::~token_order() { cancel_timers(); }

void token_order::cancel_timers() {
  if (hold_timer_ != 0) {
    env_.cancel_timer(hold_timer_);
    hold_timer_ = 0;
  }
  if (retry_timer_ != 0) {
    env_.cancel_timer(retry_timer_);
    retry_timer_ = 0;
  }
}

void token_order::set_roles(const std::vector<node_id>& members,
                            node_id lead) {
  members_ = members;
  DBSM_CHECK(std::is_sorted(members_.begin(), members_.end()));
  cancel_timers();
  have_token_ = false;
  sent_holder_ = invalid_node;
  sent_seq_ = 0;
  sent_next_assign_ = 0;
  if (lead == env_.self() && !halted_) {
    // Regeneration: the lead of the fresh view holds hop 1 of its token
    // clock, continuing the numbering at the local next_assign_ — after a
    // view install every survivor renumbered identically, so no wire
    // message (and no agreement round) is needed.
    token_seq_ = 1;
    acquire(next_assign_);
  } else {
    token_seq_ = 0;
  }
}

void token_order::quiesce() {
  ordering::quiesce();
  // A view change is flushing: the token clock stops with it. Minting or
  // passing now would be undone anyway (the install regenerates the token
  // and the group discards old-view token datagrams).
  cancel_timers();
}

void token_order::post_install(const std::vector<node_id>& new_members) {
  (void)new_members;  // set_roles() follows every install with the list
  cancel_timers();
  have_token_ = false;
}

void token_order::on_token(const token_msg& t) {
  if (halted_) return;
  // Dedup: the hop counter only moves forward. A retransmission (same
  // seq) or a token overtaken by later hops is dropped — in particular, a
  // successor that already passed the token on cannot re-acquire it from
  // the passer's retransmission.
  if (t.token_seq <= token_seq_) return;
  token_seq_ = t.token_seq;
  if (t.holder != env_.self()) return;  // observed someone else's hop
  // The passer's next_assign accompanies the token so the numbering
  // continues even if its last mint record is still in flight to us.
  if (t.next_assign > next_assign_) next_assign_ = t.next_assign;
  acquire(t.next_assign);
}

void token_order::acquire(std::uint64_t next_assign) {
  if (next_assign > next_assign_) next_assign_ = next_assign;
  have_token_ = true;
  service_token();
}

void token_order::on_complete(node_id sender, std::uint64_t app_seq) {
  (void)app_seq;
  // Only the holder mints, and only its own messages. Everyone else
  // buffers and waits for the token (or for the holder's record).
  if (!have_token_ || sender != env_.self()) return;
  service_token();
}

void token_order::service_token() {
  if (quiesced_ || halted_ || !have_token_) return;
  const bool minted = mint_pending();
  if (members_.size() <= 1) return;  // sole member: keep the token
  if (minted) {
    pass_token();
    return;
  }
  // Idle holder: nothing of ours to order. Keep the token briefly — a
  // message may complete any moment — then pass it on so the other sites'
  // ordering latency stays bounded by one circulation.
  if (hold_timer_ == 0) {
    hold_timer_ = env_.set_timer(cfg_.token_idle_delay, [this] {
      hold_timer_ = 0;
      if (quiesced_ || halted_ || !have_token_) return;
      mint_pending();
      pass_token();
    });
  }
}

bool token_order::mint_pending() {
  // Scan this node's complete-but-unassigned messages in app_seq order
  // (complete_ is keyed by (sender, app_seq), so they are contiguous).
  std::vector<msg_key> keys;
  for (auto it = complete_.lower_bound(msg_key{env_.self(), 0});
       it != complete_.end() && it->first.first == env_.self(); ++it) {
    if (!assigned_.count(it->first)) keys.push_back(it->first);
  }
  if (keys.empty()) return false;
  // Like the sequencer's records, a mint takes effect only when it returns
  // through this node's own reliable stream — everyone (the minter
  // included) orders from wire-visible assignments, which keeps
  // view-change flushes consistent. The record was broadcast before any
  // quiesce, so the flush cut always covers it: nothing to roll back.
  for (std::size_t off = 0; off < keys.size(); off += mint_chunk) {
    const std::size_t n = std::min(mint_chunk, keys.size() - off);
    assignment_batch b;
    b.base = next_assign_;
    next_assign_ += n;
    b.keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      b.keys.emplace_back(keys[off + i].first, keys[off + i].second);
      assigned_.insert(keys[off + i]);
    }
    ++mints_;
    if (send_batch_) send_batch_(encode(b));
  }
  return true;
}

void token_order::pass_token() {
  if (hold_timer_ != 0) {
    env_.cancel_timer(hold_timer_);
    hold_timer_ = 0;
  }
  // Successor: the next live member after us in site-id order, cyclically.
  const auto self_it =
      std::upper_bound(members_.begin(), members_.end(), env_.self());
  const node_id next =
      self_it != members_.end() ? *self_it : members_.front();
  if (next == env_.self()) return;  // degenerate single-member list
  ++token_seq_;
  sent_seq_ = token_seq_;
  sent_next_assign_ = next_assign_;
  sent_holder_ = next;
  have_token_ = false;
  ++tokens_passed_;
  if (send_token_) send_token_(sent_seq_, sent_next_assign_, sent_holder_);
  arm_retry();
}

void token_order::arm_retry() {
  if (retry_timer_ != 0) env_.cancel_timer(retry_timer_);
  retry_timer_ = env_.set_timer(cfg_.token_retry, [this] {
    retry_timer_ = 0;
    if (quiesced_ || halted_) return;  // view change regenerates instead
    // Superseded: we saw a later hop (the successor passed it on) or we
    // hold a regenerated token ourselves.
    if (have_token_ || token_seq_ > sent_seq_) return;
    ++token_retries_;
    if (send_token_) send_token_(sent_seq_, sent_next_assign_, sent_holder_);
    arm_retry();
  });
}

}  // namespace dbsm::gcs
