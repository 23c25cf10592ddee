// Unit tests of the benchmark's own machinery: the sample statistics, the
// self time over trace spans, the demand draw and the correctness checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "checks.h"
#include "common/obs/trace.h"
#include "data/workload.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

// Expected cut points are Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles ten = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  const Quartiles five = QuartilesOf({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);

  const Quartiles two = QuartilesOf({3.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.median, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);

  const Quartiles seven = QuartilesOf({0.5, 2.5, 1.0, 4.0, 8.0, 3.0, 7.5});
  EXPECT_DOUBLE_EQ(seven.q1, 1.0);
  EXPECT_DOUBLE_EQ(seven.median, 3.0);
  EXPECT_DOUBLE_EQ(seven.q3, 7.5);

  const Quartiles one = QuartilesOf({4.0});
  EXPECT_DOUBLE_EQ(one.q1, 4.0);
  EXPECT_DOUBLE_EQ(one.q3, 4.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

std::vector<double> Shuffled(int n) {
  std::vector<double> values(static_cast<size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  std::shuffle(values.begin(), values.end(), std::mt19937(7));
  return values;
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(TailPercentile(Shuffled(19)).has_value());

  const auto twenty = TailPercentile(Shuffled(20));
  ASSERT_TRUE(twenty.has_value());
  EXPECT_DOUBLE_EQ(twenty->percentile, 50.0);
  EXPECT_DOUBLE_EQ(twenty->value, 10.0);
  EXPECT_EQ(twenty->beyond, 10u);

  // p95 would leave only 5 beyond; p90 leaves exactly 10.
  const auto hundred = TailPercentile(Shuffled(100));
  ASSERT_TRUE(hundred.has_value());
  EXPECT_DOUBLE_EQ(hundred->percentile, 90.0);
  EXPECT_DOUBLE_EQ(hundred->value, 90.0);
  EXPECT_EQ(hundred->beyond, 10u);

  // One sample short of p99's ten: p95 is the highest that qualifies.
  const auto almost = TailPercentile(Shuffled(999));
  ASSERT_TRUE(almost.has_value());
  EXPECT_DOUBLE_EQ(almost->percentile, 95.0);
  EXPECT_EQ(almost->beyond, 49u);

  const auto thousand = TailPercentile(Shuffled(1000));
  ASSERT_TRUE(thousand.has_value());
  EXPECT_DOUBLE_EQ(thousand->percentile, 99.0);
  EXPECT_DOUBLE_EQ(thousand->value, 990.0);
  EXPECT_EQ(thousand->beyond, 10u);
}

TEST(TailPercentile, SummaryCarriesCountQuartilesAndTail) {
  const Summary s = Summarize(Shuffled(40));
  EXPECT_EQ(s.samples, 40u);
  EXPECT_DOUBLE_EQ(s.quartiles.median, 20.5);
  ASSERT_TRUE(s.tail.has_value());
  EXPECT_DOUBLE_EQ(s.tail->percentile, 75.0);
  EXPECT_EQ(Summarize({}).samples, 0u);
}

tamp::obs::TraceEvent MakeEvent(int tid, int depth, double start_us,
                                double end_us, const char* name = "op") {
  tamp::obs::TraceEvent event;
  event.name = name;
  event.tid = tid;
  event.depth = depth;
  event.ts_us = start_us;
  event.dur_us = end_us - start_us;
  return event;
}

TEST(SelfTimes, SubtractsDirectChildrenOnTheSameThread) {
  // Completion order, as the recorder stores them.
  const std::vector<tamp::obs::TraceEvent> events = {
      MakeEvent(0, 2, 2e6, 3e6),   // 0: grandchild, only its parent loses it.
      MakeEvent(0, 1, 1e6, 4e6),   // 1: child of 3.
      MakeEvent(0, 1, 5e6, 6e6),   // 2: child of 3.
      MakeEvent(0, 0, 0.0, 10e6),  // 3: root.
      MakeEvent(1, 0, 1e6, 9e6),   // 4: a pool thread's span, never a child.
      MakeEvent(0, 0, 10e6, 11e6), // 5: next root, same tick as 3's end.
      MakeEvent(0, 1, 10e6, 10.5e6),  // 6: child of 5 starting on its tick.
  };
  const std::vector<double> self = SelfTimes(events);
  EXPECT_DOUBLE_EQ(self[0], 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0 - 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[4], 8.0);
  EXPECT_DOUBLE_EQ(self[5], 0.5);
  EXPECT_DOUBLE_EQ(self[6], 0.5);

  const auto totals = TotalsByName(events);
  ASSERT_EQ(totals.size(), 1u);  // All named "op".
  EXPECT_EQ(totals.begin()->second.count, 7);
  const SpanTotals& op = totals.begin()->second;
  EXPECT_DOUBLE_EQ(op.total_s, 1 + 3 + 1 + 10 + 8 + 1 + 0.5);
  EXPECT_DOUBLE_EQ(op.self_s, 1 + 2 + 1 + 6 + 8 + 0.5 + 0.5);
}

TEST(SelfTimes, ReadsTheLibraryRecorder) {
  tamp::obs::TraceRecorder& recorder = tamp::obs::TraceRecorder::Global();
  recorder.Clear();
  { tamp::obs::TraceSpan off("ignored"); }  // Recorder disabled: no event.
  recorder.Enable();
  {
    tamp::obs::TraceSpan op("op");
    { tamp::obs::TraceSpan a("a"); }
    { tamp::obs::TraceSpan b("b"); }
  }
  recorder.Disable();
  const std::vector<tamp::obs::TraceEvent> events = recorder.Snapshot();
  recorder.Clear();
  ASSERT_EQ(events.size(), 3u);
  const auto totals = TotalsByName(events);
  ASSERT_EQ(totals.count("op"), 1u);
  const SpanTotals& op = totals.at("op");
  const double children = totals.at("a").total_s + totals.at("b").total_s;
  EXPECT_NEAR(op.self_s, op.total_s - children, 1e-9);
  EXPECT_GE(op.self_s, 0.0);
  EXPECT_DOUBLE_EQ(totals.at("a").self_s, totals.at("a").total_s);
}

TEST(DrawDemand, MatchesTheGeneratorsSurgeStream) {
  // DrawDemand copies GenerateWorkload's stream block and its kSurge
  // post-pass; this fails when the library's stream shape moves away.
  tamp::data::WorkloadConfig config = FleetConfig();
  config.scenario = tamp::data::WorkloadScenario::kSurge;
  const tamp::data::Workload generated = tamp::data::GenerateWorkload(config);
  const std::vector<tamp::assign::SpatialTask> drawn =
      DrawDemand(config, generated, /*surge=*/true, /*seed=*/7, /*day=*/0);
  ASSERT_EQ(drawn.size(), generated.task_stream.size());

  const double offset = 1440.0 * config.num_train_days;
  const double start = offset + config.day.day_start_min;
  const double end =
      offset + 1440.0 * (config.num_test_days - 1) + config.day.day_end_min;
  const double burst_start =
      start + config.surge.start_fraction * (end - start);
  const double burst_end =
      burst_start + config.surge.duration_fraction * (end - start);
  const auto in_burst = [&](const std::vector<tamp::assign::SpatialTask>& s) {
    return std::count_if(s.begin(), s.end(), [&](const auto& t) {
      return t.release_time_min >= burst_start &&
             t.release_time_min <= burst_end;
    });
  };
  const int extra =
      static_cast<int>(config.surge.extra_task_factor * config.num_tasks);
  for (const auto* stream : {&drawn, &generated.task_stream}) {
    EXPECT_GE(stream->front().release_time_min, start);
    EXPECT_LE(stream->back().release_time_min, end);
    EXPECT_GE(in_burst(*stream), extra);
    for (size_t i = 0; i < stream->size(); ++i) {
      EXPECT_EQ((*stream)[i].id, static_cast<int>(i));
    }
  }
  // Same seed and day, same draw; the baseline draw has no burst.
  EXPECT_EQ(DrawDemand(config, generated, true, 7, 0).size(), drawn.size());
  EXPECT_EQ(DrawDemand(config, generated, false, 7, 0).size(),
            static_cast<size_t>(config.num_tasks));
}

tamp::core::SimMetrics ValidDay() {
  tamp::core::SimMetrics m;
  m.total_tasks = 700;
  m.assignments = 900;
  m.accepted = 300;
  m.completed = 290;
  m.dropouts = 10;
  m.total_cost_km = 580.25;
  m.assign_seconds = 0.031;
  return m;
}

TEST(Checks, HandBuiltMismatchTripsTheReplayCheck) {
  const tamp::core::SimMetrics reference = ValidDay();
  tamp::core::SimMetrics same = reference;
  same.assign_seconds = 0.047;  // A time, not part of the outcome.
  EXPECT_TRUE(SameOutcome(reference, same));

  tamp::core::SimMetrics fewer = reference;
  fewer.completed -= 1;
  fewer.dropouts += 1;
  EXPECT_FALSE(SameOutcome(reference, fewer));

  tamp::core::SimMetrics cost = reference;
  cost.total_cost_km = std::nextafter(cost.total_cost_km, 1e9);
  EXPECT_FALSE(SameOutcome(reference, cost));

  CheckLog log;
  log.Record("day 0 KM", {});
  log.Record("day 0 KM repeat",
             SameOutcome(reference, fewer)
                 ? std::vector<std::string>{}
                 : std::vector<std::string>{"SimMetrics differ"});
  EXPECT_EQ(log.attempted(), 2);
  EXPECT_EQ(log.failed(), 1);
  ASSERT_EQ(log.messages().size(), 1u);
  EXPECT_EQ(log.messages()[0], "day 0 KM repeat: SimMetrics differ");
}

TEST(Checks, OutcomeAccounting) {
  EXPECT_TRUE(OutcomeViolations(ValidDay()).empty());

  tamp::core::SimMetrics lost = ValidDay();
  lost.completed -= 1;  // completed + dropouts no longer equals accepted.
  EXPECT_EQ(OutcomeViolations(lost).size(), 1u);

  tamp::core::SimMetrics over = ValidDay();
  over.assignments = over.accepted - 1;
  EXPECT_EQ(OutcomeViolations(over).size(), 1u);

  tamp::core::SimMetrics too_many = ValidDay();
  too_many.total_tasks = too_many.completed - 1;
  EXPECT_EQ(OutcomeViolations(too_many).size(), 1u);

  tamp::core::SimMetrics nan_cost = ValidDay();
  nan_cost.total_cost_km = std::nan("");
  EXPECT_EQ(OutcomeViolations(nan_cost).size(), 1u);
}

TEST(Checks, ParamsAndEvaluationCompareBitwise) {
  const std::vector<std::vector<double>> a = {{1.0, 0.0}, {2.5}};
  std::vector<std::vector<double>> b = a;
  EXPECT_TRUE(SameParams(a, b));
  b[0][1] = -0.0;  // Equal as numbers, different bits.
  EXPECT_FALSE(SameParams(a, b));
  EXPECT_FALSE(SameParams(a, {{1.0, 0.0}}));

  tamp::meta::PredictionMetrics x;
  x.rmse_km = 1.6;
  x.matching_rate = 0.25;
  x.num_points = 1632;
  tamp::meta::PredictionMetrics y = x;
  EXPECT_TRUE(SameEval(x, y));
  y.matching_rate = std::nextafter(y.matching_rate, 1.0);
  EXPECT_FALSE(SameEval(x, y));
}

}  // namespace
}  // namespace perfbench
