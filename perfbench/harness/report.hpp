// One workload's result: metrics by name with units, the output checks and
// their violations, the operation counts, and a human-readable report. The
// last line the benchmark prints is this result as one JSON object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void set(const std::string& name, double value, const char* unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double get(const std::string& name) const;

  /// Records a violated output check when `ok` is false.
  void check(bool ok, const std::string& what);
  /// A line of the human-readable report (printed before the JSON).
  void note(const std::string& line);

  bool correct() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the notes, then the JSON line: run record, correctness, counts,
  /// violations and every metric.
  void print(const RunRecord& record) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> violations_;
  std::vector<std::string> notes_;
};

/// Share `part / whole`, 0 when `whole` is 0.
double share(double part, double whole);

}  // namespace perfbench
