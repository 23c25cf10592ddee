#include "checks.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace perfbench {

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

bool SameOutcome(const tamp::core::SimMetrics& a,
                 const tamp::core::SimMetrics& b) {
  return a.total_tasks == b.total_tasks && a.assignments == b.assignments &&
         a.accepted == b.accepted && a.completed == b.completed &&
         a.dropouts == b.dropouts && SameBits(a.total_cost_km, b.total_cost_km);
}

bool SameEval(const tamp::meta::PredictionMetrics& a,
              const tamp::meta::PredictionMetrics& b) {
  return a.num_points == b.num_points && SameBits(a.rmse_km, b.rmse_km) &&
         SameBits(a.mae_km, b.mae_km) &&
         SameBits(a.matching_rate, b.matching_rate);
}

bool SameParams(const std::vector<std::vector<double>>& a,
                const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> OutcomeViolations(const tamp::core::SimMetrics& m) {
  std::vector<std::string> problems;
  if (m.completed + m.dropouts != m.accepted) {
    problems.push_back("completed + dropouts != accepted");
  }
  if (m.accepted > m.assignments) problems.push_back("accepted > assignments");
  if (m.completed > m.total_tasks) problems.push_back("completed > total_tasks");
  if (m.completed < 0 || m.dropouts < 0) problems.push_back("negative count");
  if (!std::isfinite(m.total_cost_km) || m.total_cost_km < 0.0) {
    problems.push_back("detour total not finite and non-negative");
  }
  return problems;
}

void CheckLog::Record(const std::string& op,
                      const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems) {
    if (messages_.size() < 20) messages_.push_back(op + ": " + p);
  }
}

}  // namespace perfbench
