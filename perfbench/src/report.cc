#include "report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  Entry entry{name, unit, value, {}, false, true};
  entry.summary.samples = samples;
  entries_.push_back(std::move(entry));
}

void Report::AddMedian(const std::string& name, const std::string& unit,
                       const std::vector<double>& samples) {
  Summary summary = Summarize(samples);
  entries_.push_back(
      {name, unit, summary.quartiles.median, summary, true, true});
}

void Report::AddDistribution(const std::string& name, const std::string& unit,
                             const std::vector<double>& samples) {
  Summary summary = Summarize(samples);
  entries_.push_back(
      {name, unit, summary.quartiles.median, summary, true, false});
}

void Report::Print(std::ostream& os) const {
  char line[320];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "%s %-32s %14.6g %-6s n=%zu",
                  e.in_result ? "metric" : "detail", e.name.c_str(), e.value,
                  e.unit.c_str(), e.summary.samples);
    os << line;
    if (e.has_spread && e.summary.samples > 0) {
      std::snprintf(line, sizeof(line), "  median=%.6g q1=%.6g q3=%.6g",
                    e.summary.quartiles.median, e.summary.quartiles.q1,
                    e.summary.quartiles.q3);
      os << line;
      if (e.summary.tail) {
        std::snprintf(line, sizeof(line), " p%g=%.6g (%zu beyond)",
                      e.summary.tail->percentile, e.summary.tail->value,
                      e.summary.tail->beyond);
        os << line;
      } else {
        os << " tail=none (<20 samples)";
      }
    }
    os << "\n";
  }
}

std::string Report::ResultJson(bool correct, int attempted, int failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.in_result) continue;
    if (!first) os << ", ";
    first = false;
    os << JsonString(e.name) << ": {\"value\": " << JsonNumber(e.value)
       << ", \"unit\": " << JsonString(e.unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
