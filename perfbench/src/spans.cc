#include "spans.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace perfbench {

std::vector<double> SelfTimes(
    const std::vector<tamp::obs::TraceEvent>& events) {
  // Walk each thread's spans in start order (a parent before a child that
  // starts on the same tick) with the chain of open spans on a stack.
  std::vector<size_t> order(events.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&events](size_t a, size_t b) {
    const tamp::obs::TraceEvent& x = events[a];
    const tamp::obs::TraceEvent& y = events[b];
    return std::tie(x.tid, x.ts_us, x.depth) <
           std::tie(y.tid, y.ts_us, y.depth);
  });
  std::vector<double> self(events.size());
  std::vector<size_t> open;
  int tid = -1;
  for (size_t i : order) {
    const tamp::obs::TraceEvent& e = events[i];
    if (e.tid != tid) {
      open.clear();
      tid = e.tid;
    }
    while (!open.empty() && events[open.back()].depth >= e.depth) {
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth == e.depth - 1) {
      self[open.back()] -= e.dur_us * 1e-6;
    }
    self[i] += e.dur_us * 1e-6;
    open.push_back(i);
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<tamp::obs::TraceEvent>& events) {
  const std::vector<double> self = SelfTimes(events);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = totals[events[i].name];
    ++t.count;
    t.total_s += events[i].dur_us * 1e-6;
    t.self_s += self[i];
  }
  return totals;
}

}  // namespace perfbench
