#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tamp::core {

/// The discrete event kinds of the streaming simulator. The enumerator
/// values are the SAME-INSTANT PRIORITY ORDER and encode the batch-window
/// predicates exactly (DESIGN.md §4j): at one instant t, everything that
/// a "<= now" admission test would admit fires before the assignment
/// trigger, and everything a "<= now" availability test would still
/// allow fires after it.
enum class EventKind : uint8_t {
  /// A task's release (release_time <= now admits it into the pool).
  kTaskArrival = 0,
  /// A task's deadline (deadline <= now purges it — so a task expiring
  /// exactly at a trigger instant is never proposed).
  kTaskExpiry = 1,
  /// A worker's availability session starts (now >= start is assignable).
  kWorkerLogin = 2,
  /// A worker's service ends (busy_until > now excludes, so a worker
  /// freeing exactly at a trigger instant IS assignable again).
  kWorkerCompletion = 3,
  /// Run the assignment algorithm over the current pool and fleet.
  kAssignTrigger = 4,
  /// A worker's availability session ends (now <= end is assignable, so a
  /// session ending exactly at a trigger instant still serves it).
  kWorkerLogout = 5,
};

/// Canonical short name ("task_arrival", "assign_trigger", ...); static
/// storage.
std::string_view EventKindName(EventKind kind);

/// One discrete event. `id` is the kind-specific stable identifier (task
/// stream index, flat session index, worker index, or trigger sequence
/// number) that completes the total order.
struct SimEvent {
  double time_min = 0.0;
  EventKind kind = EventKind::kTaskArrival;
  int64_t id = 0;

  friend bool operator==(const SimEvent&, const SimEvent&) = default;
};

/// The total-order tie-break contract: (time, kind, id), lexicographic.
/// Because the order is total over distinct events, the pop sequence of
/// EventQueue is a pure function of the pushed multiset — independent of
/// insertion order, heap layout, and thread count — which is what makes
/// event-driven runs bit-identical (DESIGN.md §4j).
inline bool EventBefore(const SimEvent& a, const SimEvent& b) {
  if (a.time_min != b.time_min) return a.time_min < b.time_min;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.id < b.id;
}

/// Deterministic priority queue of SimEvents: a binary min-heap under
/// EventBefore. Pop always returns the unique minimum of the current set,
/// so the output sequence is insertion-order-invariant.
class EventQueue {
 public:
  void Push(const SimEvent& event);

  /// Removes and returns the least event (EventBefore order). Requires
  /// !empty().
  SimEvent Pop();

  /// The least event without removing it. Requires !empty().
  const SimEvent& Peek() const;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  std::vector<SimEvent> heap_;
};

}  // namespace tamp::core
