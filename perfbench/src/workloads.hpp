// The benchmark's workloads and what they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        ///< seconds-long run on a small corpus
  int threads = 3;           ///< threads the sweep may use (fleets: 1)
  double ebbiotRateWps = 0;  ///< open-loop offered rate, fleet_ebbiot
  double ebmsRateWps = 0;    ///< open-loop offered rate, fleet_ebms
};

struct RunOutcome {
  MetricSet metrics;
  std::uint64_t attempted = 0;  ///< sensor-windows offered / evaluated
  std::uint64_t failed = 0;     ///< outputs that failed verification
  std::vector<std::string> notes;  ///< human-readable summary lines
};

[[nodiscard]] RunOutcome runFleet(const RunOptions& options);
[[nodiscard]] RunOutcome runSweep(const RunOptions& options);

/// Values of the per-layer metrics that come from the workload rather
/// than from span aggregates (0 where the workload has no such layer).
struct LayerExtras {
  double sessionBusyFrac = 0;
  double sessionBytesPerS = 0;
  double resyncs = 0;
  double framesCorrupted = 0;
  double queueWaitP50Us = 0;
  double queueWaitP99Us = 0;
  double backlogMax = 0;
  double windowsCoasted = 0;
  double resyncRestores = 0;
  /// Traced total measured outside the spans, that the system layers'
  /// self times must add up to: the fleet thread's phase wall time minus
  /// its waits for due times, or the sweep's summed processWindow time
  /// of every variant (timed by the decorator around each pipeline).
  double busyNs = 0;
  /// Sweep: runner threads x runRecording wall time, the allocations
  /// made during runRecording, and the recording windows, summed over
  /// the traced rounds.
  double runnerThreadNs = 0;
  double runnerAllocs = 0;
  double runnerWindows = 0;
  double genLagP99Us = 0;
  double overheadFrac = 0;
  double failedFrac = 0;
  double latencySamples = 0;
};

/// Every per-layer metric, in BENCHMARK.json order, from the traced
/// aggregates plus the workload's extras.  `variantTags[i]` names the
/// registry variant whose spans carry tag i.  Also checks trace
/// consistency: the system layers' self times sum to 95-100% of
/// `extras.busyNs`.
void addLayerMetrics(const trace::Totals& totals, const LayerExtras& extras,
                     const std::vector<std::string>& variantTags,
                     MetricSet& out);

/// Sleep/spin helpers for the generators.
void cpuRelax();
void waitUntilNs(std::int64_t deadlineNs);

}  // namespace perfbench
