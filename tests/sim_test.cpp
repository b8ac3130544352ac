// Unit tests for the discrete-event kernel: ordering, determinism,
// cancellation, run modes.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace dbsm::sim {
namespace {

TEST(simulator, executes_in_time_order) {
  simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(simulator, fifo_within_same_instant) {
  simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(simulator, events_can_schedule_events) {
  simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    s.schedule_after(5, [&] {
      ++fired;
      EXPECT_EQ(s.now(), 6);
    });
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(simulator, cancel_prevents_execution) {
  simulator s;
  bool ran = false;
  const event_id id = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double-cancel reports failure
  s.run();
  EXPECT_FALSE(ran);
}

TEST(simulator, cancel_after_fire_returns_false) {
  simulator s;
  const event_id id = s.schedule_at(1, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(simulator, run_until_advances_to_limit) {
  simulator s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(100, [&] { ++fired; });
  const std::size_t n = s.run_until(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 50);
  s.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(simulator, run_until_skips_cancelled_events_at_the_head) {
  simulator s;
  int fired = 0;
  const event_id early = s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(20, [&] { fired += 10; });
  const event_id late = s.schedule_at(60, [&] { fired += 100; });
  s.cancel(early);
  s.cancel(late);
  EXPECT_EQ(s.run_until(50), 1u);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.run_until(100), 0u);
  EXPECT_EQ(fired, 10);
}

TEST(simulator, run_until_executes_events_at_limit) {
  simulator s;
  bool ran = false;
  s.schedule_at(50, [&] { ran = true; });
  s.run_until(50);
  EXPECT_TRUE(ran);
}

TEST(simulator, stop_interrupts_run) {
  simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(simulator, run_events_bounded) {
  simulator s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(s.run_events(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(simulator, scheduling_into_past_throws) {
  simulator s;
  s.schedule_at(10, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5, [] {}), invariant_violation);
  EXPECT_THROW(s.schedule_after(-1, [] {}), invariant_violation);
}

TEST(simulator, pending_counts_live_events) {
  simulator s;
  const event_id a = s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(simulator, heavy_interleaving_is_deterministic) {
  auto run_once = [] {
    simulator s;
    std::vector<std::int64_t> log;
    for (int i = 0; i < 50; ++i) {
      s.schedule_at(i % 7, [&s, &log, i] {
        log.push_back(s.now() * 1000 + i);
        if (i % 3 == 0) {
          s.schedule_after(i, [&s, &log] { log.push_back(s.now()); });
        }
      });
    }
    s.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dbsm::sim
