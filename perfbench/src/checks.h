#pragma once

#include <string>
#include <vector>

#include "core/simulator.h"
#include "meta/trainer.h"

namespace perfbench {

/// Whether two replays decided the same day: every SimMetrics field equal
/// bit for bit, except assign_seconds, which is a wall-clock time.
bool SameOutcome(const tamp::core::SimMetrics& a,
                 const tamp::core::SimMetrics& b);

/// Whether two evaluations agree bit for bit (RMSE, MAE, matching rate,
/// point count).
bool SameEval(const tamp::meta::PredictionMetrics& a,
              const tamp::meta::PredictionMetrics& b);

/// Whether two trained model sets are bit-for-bit equal.
bool SameParams(const std::vector<std::vector<double>>& a,
                const std::vector<std::vector<double>>& b);

/// The accounting every replay must satisfy; one message per violation:
/// completed + dropouts == accepted <= assignments, completed <=
/// total_tasks, and a finite, non-negative detour total.
std::vector<std::string> OutcomeViolations(const tamp::core::SimMetrics& m);

/// Tally of operations (one training or one day replay each) and of the
/// ones that failed a check, with the first failure messages kept for the
/// report.
class CheckLog {
 public:
  /// Records one operation; `problems` empty means it passed.
  void Record(const std::string& op, const std::vector<std::string>& problems);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace perfbench
