#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// The metrics of one run, in the order they were added. Result metrics
/// go into the final JSON line; distributions are printed only, to show
/// the samples behind a median.
class Report {
 public:
  /// A result metric measured once (or deterministic): `samples` says how
  /// many operations it aggregates.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);

  /// A result metric whose value is the median of `samples`; the printed
  /// line also carries the quartiles and the tail percentile.
  void AddMedian(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples);

  /// A printed-only distribution (not part of the result line).
  void AddDistribution(const std::string& name, const std::string& unit,
                       const std::vector<double>& samples);

  /// One line per metric: name, value, unit, sample count and, for
  /// medians and distributions, q1/q3 and the tail percentile.
  void Print(std::ostream& os) const;

  /// The result line: {"correct", "attempted", "failed", "metrics": {name:
  /// {"value", "unit"}}} over the result metrics, values in full
  /// precision (a non-finite value prints as null).
  std::string ResultJson(bool correct, int attempted, int failed) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
    Summary summary;  // samples only, for Add().
    bool has_spread = false;
    bool in_result = true;
  };
  std::vector<Entry> entries_;
};

/// `value` as a JSON number with all its digits, or null when not finite.
std::string JsonNumber(double value);

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text);

}  // namespace perfbench
