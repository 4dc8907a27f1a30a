// Frame-clocked evaluation runner.
//
// Drives an EventSource window by window (period tF) through a *vector of
// pipelines* behind the uniform Pipeline interface:
//   * frame-domain pipelines (InputDomain::kLatchedFrame) receive the
//     latch readout of each window — the duty-cycled scheme of Fig. 2;
//   * event-domain pipelines (InputDomain::kEventStream) receive the raw
//     stream, as in the paper's EBMS comparison.
// Every pipeline's tracks are matched against ground truth at each window
// boundary across a sweep of IoU thresholds (Fig. 4's evaluation), and
// measured per-stage operation counts and stream statistics accumulate
// per pipeline, keyed by Pipeline::name() (the empirical side of
// Fig. 5 / Table I).
//
// Pipelines are picked in two ways, built in this order:
//   * registry keys (src/core/variant_registry.hpp) —
//     `config.variants = {"EBBIOT", "Hybrid"}`; the default is the
//     paper's three (EBBIOT, EBBI+KF, EBMS), and
//     makeRegistryRunnerConfig() selects every registered one;
//   * ad-hoc one-offs through a factory:
//       config.extraPipelines.push_back([] {
//         return std::make_unique<EbbiotPipeline>(myConfig, "EBBIOT-cca");
//       });
// Registry variants are built at the source's sensor size.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/variant_registry.hpp"
#include "src/eval/metrics.hpp"
#include "src/events/stats.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/ground_truth.hpp"

namespace ebbiot {

/// Builds one pipeline instance; invoked once per runRecording() call.
using PipelineFactory = std::function<std::unique_ptr<Pipeline>()>;

struct RunnerConfig {
  TimeUs framePeriod = kDefaultFramePeriodUs;
  std::vector<float> iouThresholds = defaultIouSweep();
  GtOptions gtOptions;
  /// Registry keys of the variants to evaluate, in run order (resolved
  /// against `registry`).  Each key must be registered and listed once.
  std::vector<std::string> variants = {"EBBIOT", "EBBI+KF", "EBMS"};
  /// Registry the `variants` keys resolve against; nullptr = the global
  /// variantRegistry().  Benches sweeping ad-hoc grids point this at a
  /// local registry.
  const VariantRegistry* registry = nullptr;
  /// Pipeline variants beyond the named ones, evaluated under the same
  /// protocol, built after them.  Names must be unique across the run;
  /// a clash throws LogicError once the pipelines are built.
  std::vector<PipelineFactory> extraPipelines;
  /// Stop after this many frames even if the source has more (0 = run the
  /// full `duration` passed to runRecording).
  std::size_t maxFrames = 0;
  /// Worker threads for the pipeline fan-out: each window's packet is
  /// latched once, then the pipelines (which own all their state) are
  /// processed and ground-truth-matched concurrently, one task per
  /// pipeline, with stats written to per-pipeline slots.  The RunResult
  /// is bit-identical for every thread count; run order of the reported
  /// pipelines is unchanged.  1 = the serial loop (default); 0 = one
  /// thread per hardware thread.
  int threads = 1;
  /// Stage-graph execution (effective only when threads resolve to > 1):
  /// the front end of window N+1 — stream draw, GT annotation, latch
  /// readout — overlaps the pipeline evaluation and GT matching of
  /// window N instead of idling at a per-frame barrier.  Every
  /// accumulator is still owned by exactly one task chain (front-end
  /// chain or one pipeline's chain) and updated in frame order, so the
  /// RunResult stays bit-identical to the serial loop; pinned by
  /// tests/test_runner_threads.cpp.  false falls back to the per-frame
  /// fan-out with a barrier between windows.
  bool pipelined = true;

  /// Throws ConfigError on any nonsensical value (non-positive frame
  /// period, empty or out-of-range IoU sweep, unknown or repeated
  /// variant key).  runRecording() calls this up front so
  /// misconfiguration fails fast, before any pipeline or stage graph is
  /// built.
  void validate() const;
};

/// Result of one pipeline over one recording.
struct PipelineRunStats {
  std::string name;
  std::vector<PrCounts> counts;  ///< parallel to RunnerConfig thresholds
  OpCounts totalOps;
  std::size_t frames = 0;
  /// Mean events surviving the pipeline's event-domain filter per window
  /// (0 for frame-domain pipelines).
  double filteredEventsPerFrame = 0.0;

  [[nodiscard]] double meanOpsPerFrame() const {
    return frames > 0 ? static_cast<double>(totalOps.total()) /
                            static_cast<double>(frames)
                      : 0.0;
  }
};

struct RunResult {
  std::vector<float> thresholds;
  /// One entry per pipeline, in run order, keyed by Pipeline::name().
  std::vector<PipelineRunStats> pipelines;
  std::size_t gtTracks = 0;        ///< distinct ground-truth tracks seen
  std::size_t gtBoxes = 0;         ///< total ground-truth boxes
  std::size_t frames = 0;
  std::uint64_t streamEvents = 0;  ///< raw events drawn from the source
  std::uint64_t latchedEvents = 0; ///< after latch readout
  double meanAlpha = 0.0;          ///< active-pixel fraction (latched frame)
  double meanBeta = 0.0;           ///< stream events per active pixel
  double meanEventsPerFrame = 0.0; ///< raw stream events per frame
  double meanFilteredEventsPerFrame = 0.0;  ///< after NN-filt ("EBMS" only)

  /// Stats of the pipeline with this name, or nullptr if it did not run.
  [[nodiscard]] const PipelineRunStats* stats(std::string_view name) const;

  /// Convert one pipeline's stats into a RecordingResult for weighted
  /// cross-recording averaging.
  [[nodiscard]] RecordingResult toRecordingResult(
      const PipelineRunStats& stats, const std::string& recordingName) const;
};

/// Run every selected pipeline against a source+scene for `duration`.
[[nodiscard]] RunResult runRecording(EventSource& source,
                                     const SceneProvider& scene,
                                     TimeUs duration,
                                     const RunnerConfig& config);

/// A RunnerConfig that evaluates *every variant registered* in `registry`
/// (default: the global registry) in one runRecording() call.  The
/// sensor size comes from the source; the unused width and height stay
/// because perfbench/src/sweep.cpp still passes them.
[[nodiscard]] RunnerConfig makeRegistryRunnerConfig(
    int /*width*/, int /*height*/, const VariantRegistry* registry = nullptr);

}  // namespace ebbiot
