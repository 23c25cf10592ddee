#include "core/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace tamp::core {
namespace {

std::vector<SimEvent> Drain(EventQueue& queue) {
  std::vector<SimEvent> out;
  while (!queue.empty()) out.push_back(queue.Pop());
  return out;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.Push({30.0, EventKind::kAssignTrigger, 0});
  queue.Push({10.0, EventKind::kTaskArrival, 0});
  queue.Push({20.0, EventKind::kWorkerLogin, 0});
  std::vector<SimEvent> order = Drain(queue);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].time_min, 10.0);
  EXPECT_EQ(order[1].time_min, 20.0);
  EXPECT_EQ(order[2].time_min, 30.0);
}

TEST(EventQueueTest, SameInstantOrdersByKindThenId) {
  // The same-instant priority contract (DESIGN.md §4j): arrivals and
  // expiries settle, then logins, then completions, THEN the assignment
  // trigger, and logouts last — so a session ending exactly at a trigger
  // still serves it and a task expiring exactly at a trigger never runs.
  EventQueue queue;
  queue.Push({5.0, EventKind::kWorkerLogout, 0});
  queue.Push({5.0, EventKind::kAssignTrigger, 0});
  queue.Push({5.0, EventKind::kWorkerCompletion, 2});
  queue.Push({5.0, EventKind::kWorkerLogin, 1});
  queue.Push({5.0, EventKind::kTaskExpiry, 7});
  queue.Push({5.0, EventKind::kTaskArrival, 9});
  std::vector<SimEvent> order = Drain(queue);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0].kind, EventKind::kTaskArrival);
  EXPECT_EQ(order[1].kind, EventKind::kTaskExpiry);
  EXPECT_EQ(order[2].kind, EventKind::kWorkerLogin);
  EXPECT_EQ(order[3].kind, EventKind::kWorkerCompletion);
  EXPECT_EQ(order[4].kind, EventKind::kAssignTrigger);
  EXPECT_EQ(order[5].kind, EventKind::kWorkerLogout);
}

TEST(EventQueueTest, SameKindTieBreaksOnStableId) {
  EventQueue queue;
  queue.Push({1.0, EventKind::kTaskArrival, 5});
  queue.Push({1.0, EventKind::kTaskArrival, 2});
  queue.Push({1.0, EventKind::kTaskArrival, 9});
  std::vector<SimEvent> order = Drain(queue);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].id, 2);
  EXPECT_EQ(order[1].id, 5);
  EXPECT_EQ(order[2].id, 9);
}

TEST(EventQueueTest, PopSequenceIsInsertionOrderInvariant) {
  // The total-order contract: the pop sequence is a pure function of the
  // pushed multiset. Shuffle the same event set many ways (including
  // duplicate times across kinds) and expect the identical drain.
  std::vector<SimEvent> events;
  Rng rng(20250809);
  for (int i = 0; i < 200; ++i) {
    SimEvent event;
    // A coarse time grid forces plenty of exact ties.
    event.time_min = static_cast<double>(rng.UniformInt(0, 24));
    event.kind = static_cast<EventKind>(rng.UniformInt(0, 5));
    event.id = i;
    events.push_back(event);
  }
  std::vector<SimEvent> reference;
  {
    EventQueue queue;
    for (const SimEvent& event : events) queue.Push(event);
    reference = Drain(queue);
  }
  // The reference must respect the (time, kind, id) total order.
  for (size_t i = 1; i < reference.size(); ++i) {
    EXPECT_TRUE(EventBefore(reference[i - 1], reference[i]));
  }
  for (int shuffle = 0; shuffle < 10; ++shuffle) {
    rng.Shuffle(events);
    EventQueue queue;
    for (const SimEvent& event : events) queue.Push(event);
    EXPECT_EQ(Drain(queue), reference) << "shuffle " << shuffle;
  }
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue queue;
  queue.Push({2.0, EventKind::kAssignTrigger, 0});
  queue.Push({1.0, EventKind::kTaskArrival, 0});
  EXPECT_EQ(queue.Pop().time_min, 1.0);
  // A push below the current front surfaces immediately.
  queue.Push({0.5, EventKind::kTaskArrival, 1});
  EXPECT_EQ(queue.Peek().time_min, 0.5);
  EXPECT_EQ(queue.Pop().id, 1);
  EXPECT_EQ(queue.Pop().kind, EventKind::kAssignTrigger);
  EXPECT_TRUE(queue.empty());
}

/// Draws one event on a coarse grid, so equal instants across kinds and
/// equal (time, kind) pairs across ids are common.
SimEvent RandomEvent(Rng& rng) {
  SimEvent event;
  event.time_min = 0.5 * static_cast<double>(rng.UniformInt(0, 12));
  event.kind = static_cast<EventKind>(rng.UniformInt(0, 5));
  event.id = rng.UniformInt(0, 6);
  return event;
}

TEST(EventQueueTest, FuzzMatchesSortedVectorModel) {
  // Random push/pop interleavings against the plainest model of the
  // contract: a vector kept sorted by (time_min, kind, id). Each step is a
  // single push, a burst of pushes, a single pop or a drain to empty;
  // after every step the sizes agree and Peek is the model's least event.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    EventQueue queue;
    std::vector<SimEvent> model;
    const auto push = [&](const SimEvent& event) {
      queue.Push(event);
      model.insert(
          std::upper_bound(model.begin(), model.end(), event, EventBefore),
          event);
    };
    const auto pop = [&] {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.Pop(), model.front());
      model.erase(model.begin());
    };
    int drains = 0;
    for (int step = 0; step < 600; ++step) {
      const int64_t op = rng.UniformInt(0, 99);
      if (op < 40) {
        push(RandomEvent(rng));
      } else if (op < 50) {
        const int64_t burst = rng.UniformInt(2, 12);
        for (int64_t i = 0; i < burst; ++i) push(RandomEvent(rng));
      } else if (op < 95) {
        if (!model.empty()) pop();
      } else {
        while (!model.empty()) pop();
        ++drains;
      }
      ASSERT_EQ(queue.size(), model.size());
      ASSERT_EQ(queue.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(queue.Peek(), model.front());
      }
    }
    while (!model.empty()) pop();
    EXPECT_TRUE(queue.empty());
    EXPECT_GT(drains, 0);
  }
}

TEST(EventKindNameTest, AllNamed) {
  EXPECT_EQ(EventKindName(EventKind::kTaskArrival), "task_arrival");
  EXPECT_EQ(EventKindName(EventKind::kTaskExpiry), "task_expiry");
  EXPECT_EQ(EventKindName(EventKind::kWorkerLogin), "worker_login");
  EXPECT_EQ(EventKindName(EventKind::kWorkerCompletion),
            "worker_completion");
  EXPECT_EQ(EventKindName(EventKind::kAssignTrigger), "assign_trigger");
  EXPECT_EQ(EventKindName(EventKind::kWorkerLogout), "worker_logout");
}

}  // namespace
}  // namespace tamp::core
