#include "sim/simulator.hpp"

#include <utility>

namespace dbsm::sim {

event_id simulator::schedule_at(sim_time t, event_fn fn) {
  DBSM_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                           << " now=" << now_);
  DBSM_CHECK(fn != nullptr);
  const event_id id = next_seq_++;
  heap_.push(entry{t, id, id});
  callbacks_.emplace(id, std::move(fn));
  return id;
}

event_id simulator::schedule_after(sim_duration d, event_fn fn) {
  DBSM_CHECK_MSG(d >= 0, "negative delay: " << d);
  return schedule_at(now_ + d, std::move(fn));
}

bool simulator::cancel(event_id id) { return callbacks_.erase(id) != 0; }

bool simulator::pop_and_run(sim_time limit) {
  while (!heap_.empty()) {
    const entry e = heap_.top();
    auto it = callbacks_.find(e.id);
    if (it == callbacks_.end()) {  // cancelled
      heap_.pop();
      continue;
    }
    if (e.t > limit) return false;
    heap_.pop();
    event_fn fn = std::move(it->second);
    callbacks_.erase(it);
    DBSM_CHECK_MSG(e.t >= now_, "event queue went backwards");
    now_ = e.t;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

std::size_t simulator::run() {
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_ && pop_and_run()) ++n;
  return n;
}

std::size_t simulator::run_until(sim_time limit) {
  DBSM_CHECK(limit >= now_);
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_ && pop_and_run(limit)) ++n;
  if (!stop_requested_ && now_ < limit) now_ = limit;
  return n;
}

std::size_t simulator::run_events(std::size_t n) {
  stop_requested_ = false;
  std::size_t done = 0;
  while (done < n && !stop_requested_ && pop_and_run()) ++done;
  return done;
}

bool simulator::step() { return pop_and_run(); }

}  // namespace dbsm::sim
