#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/obs/trace.h"

namespace perfbench {

/// Self time of every event (index-aligned with `events`): its duration
/// minus the durations of its direct children. The events are a
/// tamp::obs::TraceRecorder snapshot, in any order. Spans on one thread
/// nest strictly, so a span's direct children are the spans of the same
/// thread, one level deeper, that start inside it; spans of other threads
/// (pool workers) are roots of their own thread and never a child.
std::vector<double> SelfTimes(const std::vector<tamp::obs::TraceEvent>& events);

/// Per-name totals over an event list, in seconds.
struct SpanTotals {
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<tamp::obs::TraceEvent>& events);

}  // namespace perfbench
