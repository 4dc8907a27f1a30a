// Statistics and reporting helpers shared by the workloads, with a
// self-test that every run executes before it measures anything.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A failed in-run verification; what() names the check.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure(what) unless `ok`.
void check(bool ok, const std::string& what);

[[nodiscard]] double median(std::vector<double> values);

/// Median of the lowest ceil(n / 4) of a run's per-round values: the
/// fleets' estimate of a latency tail.  Rounds replay identical inputs, so
/// they differ only by interference from outside the process, and one
/// stall of a few milliseconds multiplies a round's p99; the lowest rounds
/// are the undisturbed measurements of the same work.
[[nodiscard]] double lowestQuarter(std::vector<double> rounds);

/// "name: v1 v2 ... | quartiles q1 q2 q3" summary line of per-round
/// values (the within-run spread).
[[nodiscard]] std::string roundsNote(const std::string& name,
                                     const std::vector<double>& rounds);

/// First, second and third quartile, as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method)
/// computes them.  Needs at least two values.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 1)) of samples that may contain
/// +infinity (windows that never completed count as beyond every
/// percentile).  The percentile rule: at least ten samples must lie
/// beyond it, i.e. n * (1 - p) >= 10; otherwise, or when the percentile
/// itself is infinite, throws CheckFailure.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Open-loop generator lateness: p99 of how far behind its schedule each
/// send started, in microseconds (early sends count as on time).
[[nodiscard]] double latenessP99Us(const std::vector<std::int64_t>& dueNs,
                                   const std::vector<std::int64_t>& sentNs);

/// Metric names: a letter or digit, then at most 63 more of letters,
/// digits, '_', '.', '-'.  Units: 1..16 of letters, digits, '_', '/',
/// '%', '.', '-'.
[[nodiscard]] bool validMetricName(std::string_view name);
[[nodiscard]] bool validUnit(std::string_view unit);

/// Variant name as a metric-key segment: lower case, every run of other
/// characters folded to one '_' ("EBBI+KF" -> "ebbi_kf").
[[nodiscard]] std::string sanitizeName(std::string_view name);

/// Ordered, validated set of named metrics.
class MetricSet {
 public:
  /// Throws CheckFailure on an invalid or duplicate name, an invalid
  /// unit, or a non-finite value.
  void add(const std::string& name, double value, const std::string& unit);

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  /// {"name": {"value": v, "unit": "u"}, ...} with full precision.
  [[nodiscard]] std::string toJson() const;

 private:
  std::vector<Entry> entries_;
};

/// Exercise the helpers above against known answers; throws
/// CheckFailure naming the first helper that misbehaves.
void selfTest();

}  // namespace perfbench
