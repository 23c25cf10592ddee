#include "assign/sharding.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"

namespace tamp::assign {
namespace {

/// Packed (left, right) pair key; batch indices are well under 2^31.
int64_t PairKey(int left, int right) {
  return (static_cast<int64_t>(left) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(right));
}

/// Union-find over task/worker nodes with path halving + union by size.
/// All traversal is by ascending index — never hash order — so the
/// resulting components and their numbering are deterministic.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

}  // namespace

ShardPlan BuildShardPlan(const std::vector<std::vector<TaskCandidate>>& table,
                         int num_workers) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& count_counter =
      registry.GetCounter("assign.shard_count");
  static obs::Gauge& max_rows_gauge =
      registry.GetGauge("assign.shard_max_rows");

  TAMP_CHECK(num_workers >= 0);
  const int num_tasks = static_cast<int>(table.size());

  ShardPlan plan;
  plan.shard_of_task.assign(static_cast<size_t>(num_tasks), -1);
  plan.shard_of_worker.assign(static_cast<size_t>(num_workers), -1);

  // Nodes 0..T-1 are tasks, T..T+W-1 are workers. Every table row unions
  // its task with its worker; rows are visited in index order.
  UnionFind uf(static_cast<size_t>(num_tasks + num_workers));
  for (int t = 0; t < num_tasks; ++t) {
    for (const TaskCandidate& tc : table[static_cast<size_t>(t)]) {
      TAMP_DCHECK(tc.worker >= 0 && tc.worker < num_workers);
      uf.Union(t, num_tasks + tc.worker);
    }
  }

  // Number the components by first appearance over ascending task index;
  // tasks (and workers) with no rows stay unsharded (-1).
  std::vector<int> shard_of_root(static_cast<size_t>(num_tasks + num_workers),
                                 -1);
  for (int t = 0; t < num_tasks; ++t) {
    if (table[static_cast<size_t>(t)].empty()) continue;
    const int root = uf.Find(t);
    int& shard = shard_of_root[static_cast<size_t>(root)];
    if (shard < 0) {
      shard = static_cast<int>(plan.shards.size());
      plan.shards.emplace_back();
    }
    plan.shard_of_task[static_cast<size_t>(t)] = shard;
    plan.shards[static_cast<size_t>(shard)].tasks.push_back(t);
    const int64_t rows =
        static_cast<int64_t>(table[static_cast<size_t>(t)].size());
    plan.shards[static_cast<size_t>(shard)].rows += rows;
    plan.total_rows += rows;
  }
  for (int w = 0; w < num_workers; ++w) {
    const int shard = shard_of_root[static_cast<size_t>(uf.Find(num_tasks + w))];
    if (shard < 0) continue;  // No row references this worker.
    plan.shard_of_worker[static_cast<size_t>(w)] = shard;
    plan.shards[static_cast<size_t>(shard)].workers.push_back(w);
  }

  for (Shard& shard : plan.shards) {
    const int64_t t = static_cast<int64_t>(shard.tasks.size());
    const int64_t w = static_cast<int64_t>(shard.workers.size());
    shard.cost = std::min(t, w) * std::min(t, w) * std::max(t, w);
    plan.max_rows = std::max(plan.max_rows, shard.rows);
  }

  // LPT order: most expensive shard first, so the pool's dynamic index
  // claiming balances thread load. stable_sort keeps equal-cost shards in
  // first-appearance order — the ordering is deterministic either way, but
  // stability makes it independent of the sort implementation.
  std::vector<size_t> order(plan.shards.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plan.shards[a].cost > plan.shards[b].cost;
  });
  std::vector<int> new_of_old(plan.shards.size());
  std::vector<Shard> sorted;
  sorted.reserve(plan.shards.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    new_of_old[order[rank]] = static_cast<int>(rank);
    sorted.push_back(std::move(plan.shards[order[rank]]));
  }
  plan.shards = std::move(sorted);
  for (int& s : plan.shard_of_task) {
    if (s >= 0) s = new_of_old[static_cast<size_t>(s)];
  }
  for (int& s : plan.shard_of_worker) {
    if (s >= 0) s = new_of_old[static_cast<size_t>(s)];
  }

  count_counter.Increment(static_cast<int64_t>(plan.shards.size()));
  max_rows_gauge.Set(static_cast<double>(plan.max_rows));
  return plan;
}

matching::MatchResult ShardedMaxWeightMatching(
    int num_left, int num_right, const std::vector<matching::Edge>& edges,
    const ShardPlan& plan) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  TAMP_CHECK(plan.shard_of_task.size() == static_cast<size_t>(num_left));
  TAMP_CHECK(plan.shard_of_worker.size() == static_cast<size_t>(num_right));
  matching::MatchResult result;
  if (edges.empty() || plan.shards.empty()) return result;

  const size_t num_shards = plan.shards.size();
  // Shard-local index of each global task/worker (each belongs to <= 1
  // shard; member lists are ascending, so local order mirrors global).
  std::vector<int> local_of_task(static_cast<size_t>(num_left), -1);
  std::vector<int> local_of_worker(static_cast<size_t>(num_right), -1);
  for (const Shard& shard : plan.shards) {
    for (size_t i = 0; i < shard.tasks.size(); ++i) {
      local_of_task[static_cast<size_t>(shard.tasks[i])] =
          static_cast<int>(i);
    }
    for (size_t i = 0; i < shard.workers.size(); ++i) {
      local_of_worker[static_cast<size_t>(shard.workers[i])] =
          static_cast<int>(i);
    }
  }

  // Partition edges by shard (relative order preserved) and remember each
  // pair's effective (duplicate-max) weight for the merged total below.
  std::vector<std::vector<matching::Edge>> shard_edges(num_shards);
  std::unordered_map<int64_t, double> weight_of_pair;  // Lookup-only.
  weight_of_pair.reserve(edges.size());
  for (const matching::Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    if (e.weight <= 0.0) continue;  // The global matcher drops these too.
    const int s = plan.shard_of_task[static_cast<size_t>(e.left)];
    // A positive-weight edge is a candidate row, and every row was unioned
    // into exactly one component — so both endpoints share a shard.
    TAMP_CHECK_MSG(s >= 0 &&
                       s == plan.shard_of_worker[static_cast<size_t>(e.right)],
                   "edge crosses shard boundaries: plan/edges mismatch");
    shard_edges[static_cast<size_t>(s)].push_back(
        {local_of_task[static_cast<size_t>(e.left)],
         local_of_worker[static_cast<size_t>(e.right)], e.weight});
    double& cell = weight_of_pair[PairKey(e.left, e.right)];
    cell = std::max(cell, e.weight);
  }

  // Solve shards concurrently. LPT: the plan orders shards cost-
  // descending and the pool claims indices dynamically, so the largest
  // solves start first. Writes are slot-indexed (sub[s]); the per-thread
  // scratch is the standard thread_local idiom of the parallel runtime.
  obs::TraceSpan solve_span("assign.shard_solve");
  std::vector<matching::MatchResult> sub(num_shards);
  ParallelFor(num_shards, [&](size_t s) {
    if (shard_edges[s].empty()) return;
    thread_local matching::MatchingScratch scratch;
    sub[s] = matching::MaxWeightMatching(
        static_cast<int>(plan.shards[s].tasks.size()),
        static_cast<int>(plan.shards[s].workers.size()), shard_edges[s],
        &scratch);
  });

  // Merge in global left-ascending order — the global solve's emission
  // order — and recompute total_weight by summing the pair weights in that
  // order, so both the pair list and the total are bitwise-equal to the
  // unsharded MaxWeightMatching.
  for (size_t s = 0; s < num_shards; ++s) {
    for (auto [l, r] : sub[s].pairs) {
      result.pairs.emplace_back(
          plan.shards[s].tasks[static_cast<size_t>(l)],
          plan.shards[s].workers[static_cast<size_t>(r)]);
    }
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  for (auto [l, r] : result.pairs) {
    const auto it = weight_of_pair.find(PairKey(l, r));
    TAMP_CHECK(it != weight_of_pair.end());
    result.total_weight += it->second;
  }
  return result;
}

}  // namespace tamp::assign
