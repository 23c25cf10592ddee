// Diffs two BENCH_<target>.json files (written by bench/bench_common's
// JsonReport) with a numeric tolerance, so perf work can assert "the table
// values did not move" across commits or thread counts.
//
// Usage:
//   tamp_bench_compare [--tol X] [--strict-timing] [--expect-diff] A B
//
// Metric keys must match within the relative tolerance (default 1e-12:
// bit-identical modulo printing); a metric present in only one file is a
// failure. Timing keys — "threads", everything under "stages.", and any
// key with a dot-separated component ending in "_s" (the repo convention
// for wall-clock seconds: a table's TT column, or the "obs" section's
// duration histograms like obs.sim.assign_s.le_0.001) — are reported but
// never fail the comparison unless --strict-timing is given: wall clock is
// machine-dependent, table values and the obs work counts are not.
// --expect-diff inverts the exit code (self-test of the tool itself,
// mirroring the lint gate's --expect-violations).
//
// Exit code 0 when metrics match (inverted under --expect-diff), 1 when
// they differ, 2 on usage / IO / parse errors.
//
// The "manifest" block (git rev, build type, compiler, thread counts)
// says what produced a report; it never fails a comparison, so a report
// from another build or checkout still diffs on its numbers alone.
//
// The parser handles exactly the restricted schema JsonReport emits — a
// flat object of string / number / one-level object values — by design:
// no third-party JSON dependency, runs anywhere the toolchain runs.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool Expect(char c) {
    SkipSpace();
    if (pos >= text.size() || text[pos] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos >= text.size() || text[pos] != '"') return Fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        ++pos;  // JsonEscape only emits \" and \\ (and \n etc. pass through).
      }
      out->push_back(text[pos]);
      ++pos;
    }
    if (pos >= text.size()) return Fail("unterminated string");
    ++pos;
    return true;
  }

  bool ParseNumber(double* out) {
    SkipSpace();
    const char* start = text.c_str() + pos;
    char* end = nullptr;
    *out = std::strtod(start, &end);
    if (end == start) return Fail("expected number");
    pos += static_cast<std::size_t>(end - start);
    return true;
  }
};

/// One parsed report: the flattened numeric view ("threads", "stages.X",
/// "metrics.Y" -> value) plus the string fields ("target").
struct Report {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

bool ParseReport(Parser& p, Report* out) {
  if (!p.Expect('{')) return false;
  p.SkipSpace();
  if (p.pos < p.text.size() && p.text[p.pos] == '}') {
    ++p.pos;
    return true;
  }
  while (true) {
    std::string key;
    if (!p.ParseString(&key)) return false;
    if (!p.Expect(':')) return false;
    p.SkipSpace();
    if (p.pos >= p.text.size()) return p.Fail("truncated value");
    const char c = p.text[p.pos];
    if (c == '"') {
      std::string value;
      if (!p.ParseString(&value)) return false;
      out->strings[key] = value;
    } else if (c == '{') {
      ++p.pos;
      p.SkipSpace();
      if (p.pos < p.text.size() && p.text[p.pos] == '}') {
        ++p.pos;
      } else {
        // Manifest values describe the run and are dropped here.
        const bool keep = key != "manifest";
        while (true) {
          std::string inner;
          if (!p.ParseString(&inner)) return false;
          if (!p.Expect(':')) return false;
          p.SkipSpace();
          if (p.pos < p.text.size() && p.text[p.pos] == '"') {
            std::string value;
            if (!p.ParseString(&value)) return false;
            if (keep) out->strings[key + "." + inner] = value;
          } else {
            double value = 0.0;
            if (!p.ParseNumber(&value)) return false;
            if (keep) out->numbers[key + "." + inner] = value;
          }
          p.SkipSpace();
          if (p.pos < p.text.size() && p.text[p.pos] == ',') {
            ++p.pos;
            continue;
          }
          break;
        }
        if (!p.Expect('}')) return false;
      }
    } else {
      double value = 0.0;
      if (!p.ParseNumber(&value)) return false;
      out->numbers[key] = value;
    }
    p.SkipSpace();
    if (p.pos < p.text.size() && p.text[p.pos] == ',') {
      ++p.pos;
      continue;
    }
    break;
  }
  return p.Expect('}');
}

bool LoadReport(const std::string& path, Report* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "could not read " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Parser p(text);
  if (!ParseReport(p, out)) {
    *error = path + ": " + p.error;
    return false;
  }
  return true;
}

bool IsTimingKey(const std::string& key) {
  if (key == "threads" || key.rfind("stages.", 0) == 0) return true;
  // Wall-clock-derived values carry an `_s` name component: either the key
  // itself ends in `_s` (a seconds-valued cell), or some dotted component
  // does (a duration histogram's .count/.sum/.le_* sub-keys, e.g.
  // obs.km.solve_s.le_0.001).
  std::size_t start = 0;
  while (start <= key.size()) {
    std::size_t dot = key.find('.', start);
    if (dot == std::string::npos) dot = key.size();
    if (dot - start >= 2 && key.compare(dot - 2, 2, "_s") == 0) return true;
    start = dot + 1;
  }
  return false;
}

bool WithinTolerance(double a, double b, double tol) {
  const double scale =
      std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace

int main(int argc, char** argv) {
  double tol = 1e-12;
  bool strict_timing = false;
  bool expect_diff = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tol") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: --tol needs a value\n");
        return 2;
      }
      tol = std::strtod(argv[++i], nullptr);
    } else if (a == "--strict-timing") {
      strict_timing = true;
    } else if (a == "--expect-diff") {
      expect_diff = true;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: tamp_bench_compare [--tol X] [--strict-timing] "
                 "[--expect-diff] <a.json> <b.json>\n");
    return 2;
  }

  Report a, b;
  std::string error;
  if (!LoadReport(paths[0], &a, &error) || !LoadReport(paths[1], &b, &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }

  int metric_diffs = 0;
  int timing_diffs = 0;
  auto report_diff = [&](const std::string& key, const char* what) {
    const bool timing = IsTimingKey(key);
    (timing ? timing_diffs : metric_diffs) += 1;
    std::fprintf(stderr, "%s%s: %s\n", timing ? "(timing) " : "", key.c_str(),
                 what);
  };

  // Union of keys, walked in order (both maps are sorted).
  auto ia = a.numbers.begin();
  auto ib = b.numbers.begin();
  while (ia != a.numbers.end() || ib != b.numbers.end()) {
    if (ib == b.numbers.end() ||
        (ia != a.numbers.end() && ia->first < ib->first)) {
      report_diff(ia->first, "only in first file");
      ++ia;
    } else if (ia == a.numbers.end() || ib->first < ia->first) {
      report_diff(ib->first, "only in second file");
      ++ib;
    } else {
      if (!WithinTolerance(ia->second, ib->second, tol)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%.17g vs %.17g (|delta| = %.3g)",
                      ia->second, ib->second,
                      std::fabs(ia->second - ib->second));
        report_diff(ia->first, buf);
      }
      ++ia;
      ++ib;
    }
  }

  const std::size_t compared = a.numbers.size();
  std::fprintf(stderr,
               "bench_compare: %zu keys, %d metric diff(s), %d timing "
               "diff(s), tol %.3g\n",
               compared, metric_diffs, timing_diffs, tol);

  const bool failed = metric_diffs > 0 || (strict_timing && timing_diffs > 0);
  if (expect_diff) return failed ? 0 : 1;
  return failed ? 1 : 0;
}
