#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "data/workload.h"

namespace perfbench {

/// The traced offline stage: the Eq. 7 weighter, training and evaluation
/// as separate obs::TraceSpan spans ("bench.core.ta_weighter",
/// "bench.meta.train", "bench.meta.evaluate"). Inside "bench.meta.train" the
/// GTTAML training runs as MobilityTrainer::Train's public sub-layer calls,
/// in Train's order, each under its own span ("bench.similarity.paths",
/// "bench.similarity.factors", "bench.cluster.tree", "bench.meta.taml",
/// "bench.meta.fine_tune"). The spans record only while the global
/// TraceRecorder is enabled.
struct TracedTraining {
  /// The sub-layer split reproduced `reference_params` bit for bit. When
  /// it did not (or the configured algorithm is not GTTAML), Train itself
  /// runs under "bench.meta.train_fallback" and the split's spans must not be
  /// reported as Train's layers.
  bool split_exact = false;
  tamp::meta::EvalResult eval;
};
TracedTraining TraceTraining(
    const tamp::core::PipelineConfig& pipeline,
    const tamp::data::Workload& fleet,
    const std::vector<std::vector<double>>& reference_params);

/// Work counts of one open-loop layer pass.
struct LayerPassCounts {
  int64_t triggers = 0;        // Trigger instants with a pool and a fleet.
  int64_t candidate_rows = 0;  // Rows of the GenerateCandidates tables.
  int64_t candidate_evals = 0; // EvaluateCandidate calls behind them.
};

/// The open-loop layer pass over one test day. At every trigger instant of
/// the replay schedule it builds what that trigger would see if nothing
/// had been assigned yet -- the live pool (released, unexpired tasks) and
/// the available fleet's recent positions -- and times, each under its
/// own span inside a "bench.trigger" span: the fleet forecast
/// (RolloutPredictBatch, "bench.nn.forecast"), candidate generation
/// (CandidateIndex + GenerateCandidates, "bench.assign.candidates"), every
/// method's assigner with default arguments ("bench.assign.solve.<method>"),
/// and MaxWeightMatching on the KM edge set ("bench.matching.solve"). The
/// pool is larger than in the closed-loop replay (nothing leaves it early),
/// so the times attribute a replay's cost without summing to it.
LayerPassCounts LayerPass(const tamp::core::PipelineConfig& pipeline,
                          const tamp::data::Workload& day,
                          const tamp::core::OfflineResult& offline,
                          const std::vector<tamp::core::AssignMethod>& methods);

}  // namespace perfbench
