#include "assign/ppi.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "matching/hungarian.h"

namespace tamp::assign {
namespace {

/// A stage-1/2 candidate edge: the (task, worker) pair with its Theorem-2
/// evidence.
struct PpiCandidate {
  int task = -1;
  int worker = -1;
  double min_b = 0.0;
  double score = 0.0;  // |B| * MR.
};

/// Key for the pair -> min_b lookup below; task/worker are batch indices
/// well under 2^31 so the packed key is collision-free.
int64_t PairKey(int task, int worker) {
  return (static_cast<int64_t>(task) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(worker));
}

/// Reusable buffers for MatchAndCommit across the many per-batch KM calls
/// of one PpiAssign invocation.
struct CommitScratch {
  std::vector<matching::Edge> km_edges;
  std::unordered_map<int64_t, double> min_b_of_pair;
  matching::MatchingScratch matching;
};

/// Runs KM on the given candidate edges and appends the matched pairs to
/// `plan`, marking tasks/workers as assigned. Weights are 1/(min_b+floor).
void MatchAndCommit(const std::vector<PpiCandidate>& edges, int num_tasks,
                    int num_workers, double weight_floor,
                    CommitScratch& scratch, std::vector<char>& task_done,
                    std::vector<char>& worker_done, AssignmentPlan& plan) {
  if (edges.empty()) return;
  obs::TraceSpan match_span("ppi.match");
  std::vector<matching::Edge>& km_edges = scratch.km_edges;
  km_edges.clear();
  km_edges.reserve(edges.size());
  // Index min_b by pair id so recovering the detour of a matched pair is a
  // hash lookup, not a rescan of every edge per match (O(E * M) before).
  std::unordered_map<int64_t, double>& min_b_of_pair = scratch.min_b_of_pair;
  min_b_of_pair.clear();
  min_b_of_pair.reserve(edges.size());
  for (const PpiCandidate& c : edges) {
    km_edges.push_back({c.task, c.worker, 1.0 / (c.min_b + weight_floor)});
    const bool inserted =
        min_b_of_pair.emplace(PairKey(c.task, c.worker), c.min_b).second;
    // Each (task, worker) pair is evaluated once per stage, so a duplicate
    // edge means a caller bug (and would make the recovered min_b ambiguous).
    TAMP_DCHECK(inserted);
    (void)inserted;
  }
  const matching::MatchResult result = matching::MaxWeightMatching(
      num_tasks, num_workers, km_edges, &scratch.matching);
  for (auto [task, worker] : result.pairs) {
    const size_t ti = static_cast<size_t>(task);
    const size_t wi = static_cast<size_t>(worker);
    TAMP_CHECK(!task_done[ti] && !worker_done[wi]);
    task_done[ti] = 1;
    worker_done[wi] = 1;
    auto it = min_b_of_pair.find(PairKey(task, worker));
    TAMP_CHECK(it != min_b_of_pair.end());
    plan.pairs.push_back({task, worker, it->second});
  }
}

}  // namespace

AssignmentPlan PpiAssign(const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers,
                         double now_min, const PpiConfig& config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& calls_counter = registry.GetCounter("ppi.calls");
  static obs::Counter& certain_counter =
      registry.GetCounter("ppi.stage1_certain_edges");
  static obs::Counter& pending_counter =
      registry.GetCounter("ppi.stage2_pending_edges");
  static obs::Counter& fallback_counter =
      registry.GetCounter("ppi.stage3_fallback_edges");
  static obs::Histogram& build_hist = registry.GetHistogram(
      "assign.index_build_s", obs::DurationEdgesSeconds());

  obs::TraceSpan ppi_span("ppi.assign");
  calls_counter.Increment();
  const int num_tasks = static_cast<int>(tasks.size());
  const int num_workers = static_cast<int>(workers.size());
  AssignmentPlan plan;
  if (num_tasks == 0 || num_workers == 0) return plan;

  // Candidate table shared by stages 1 and 3: EvaluateCandidate is pure in
  // (task, worker, now), so one evaluation per pair serves both stages.
  std::optional<obs::TraceSpan> build_span(std::in_place, "ppi.index_build");
  Stopwatch build_watch;
  const CandidateIndex index(workers);
  build_hist.Record(build_watch.ElapsedSeconds());
  build_span.reset();
  std::optional<obs::TraceSpan> candidates_span(std::in_place,
                                                "assign.candidates");
  const std::vector<std::vector<TaskCandidate>> table = GenerateCandidates(
      tasks, workers, config.match_radius_km, now_min, &index);
  candidates_span.reset();

  std::vector<char> task_done(static_cast<size_t>(num_tasks), 0);
  std::vector<char> worker_done(static_cast<size_t>(num_workers), 0);
  CommitScratch scratch;

  // ---- Stage 1 (Alg. 4 lines 1-12): certain pairs (|B| * MR >= 1). ----
  std::optional<obs::TraceSpan> stage1_span(std::in_place, "ppi.stage1");
  std::vector<PpiCandidate> certain;
  std::vector<PpiCandidate> pending;  // The B-set of lines 10-11.
  for (size_t t = 0; t < table.size(); ++t) {
    for (const TaskCandidate& tc : table[t]) {
      if (tc.b_count == 0) continue;
      PpiCandidate c;
      c.task = static_cast<int>(t);
      c.worker = tc.worker;
      c.min_b = tc.min_b;
      c.score = static_cast<double>(tc.b_count) *
                workers[static_cast<size_t>(tc.worker)].matching_rate;
      if (c.score >= 1.0) {
        certain.push_back(c);
      } else {
        pending.push_back(c);
      }
    }
  }
  certain_counter.Increment(static_cast<int64_t>(certain.size()));
  pending_counter.Increment(static_cast<int64_t>(pending.size()));
  MatchAndCommit(certain, num_tasks, num_workers, config.weight_floor_km,
                 scratch, task_done, worker_done, plan);
  stage1_span.reset();

  // ---- Stage 2 (lines 13-27): drain pending pairs in descending |B|*MR,
  // epsilon at a time. ----
  std::optional<obs::TraceSpan> stage2_span(std::in_place, "ppi.stage2");
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PpiCandidate& a, const PpiCandidate& b) {
                     return a.score > b.score;
                   });
  std::vector<PpiCandidate> batch;
  std::vector<PpiCandidate> live;
  auto flush_batch = [&]() {
    if (batch.empty()) return;
    // Skip entries invalidated by earlier commits (lines 22-23's removal).
    live.clear();
    for (const PpiCandidate& c : batch) {
      if (!task_done[static_cast<size_t>(c.task)] &&
          !worker_done[static_cast<size_t>(c.worker)]) {
        live.push_back(c);
      }
    }
    MatchAndCommit(live, num_tasks, num_workers, config.weight_floor_km,
                   scratch, task_done, worker_done, plan);
    batch.clear();
  };
  for (const PpiCandidate& c : pending) {
    if (task_done[static_cast<size_t>(c.task)] ||
        worker_done[static_cast<size_t>(c.worker)]) {
      continue;
    }
    batch.push_back(c);
    if (static_cast<int>(batch.size()) == config.epsilon) flush_batch();
  }
  flush_batch();  // Lines 25-27: the final partial batch.
  stage2_span.reset();

  // ---- Stage 3 (lines 28-34): leftovers matched on dis^min only. ----
  obs::TraceSpan stage3_span("ppi.stage3");
  std::vector<PpiCandidate> fallback;
  for (size_t t = 0; t < table.size(); ++t) {
    if (task_done[t]) continue;
    for (const TaskCandidate& tc : table[t]) {
      if (worker_done[static_cast<size_t>(tc.worker)]) continue;
      if (!tc.stage3_feasible) continue;
      fallback.push_back({static_cast<int>(t), tc.worker, tc.min_dis, 0.0});
    }
  }
  fallback_counter.Increment(static_cast<int64_t>(fallback.size()));
  MatchAndCommit(fallback, num_tasks, num_workers, config.weight_floor_km,
                 scratch, task_done, worker_done, plan);
  return plan;
}

}  // namespace tamp::assign
