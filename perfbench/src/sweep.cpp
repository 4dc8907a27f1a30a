// sweep_registry: the paper's offline evaluation as a batch job — one
// SyntheticENG slice through runRecording with every registered variant,
// min(4, nproc - 1) threads and the pipelined stage graph, fed from a
// replay EventSource over windows generated beforehand.
//
// Untraced rounds run the slice twice: pipelined for throughput, then with
// a barrier between windows for latency.  Each registry-built pipeline is
// wrapped in a thin decorator that stamps when it finished each window;
// with the replay source's draw stamps that gives the per-window latency
// (draw -> all variants done).
// Traced rounds hand runRecording staged compositions of the same
// variants instead, and the decorator times each processWindow call: the
// total the stage spans' self times are checked against.  Every round's
// RunResult must equal a threads = 1 reference run over the same windows.
#include <algorithm>
#include <memory>

#include "alloc_hook.hpp"
#include "corpus.hpp"
#include "src/core/runner.hpp"
#include "src/core/variant_registry.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ebbiot;
using trace::Layer;

namespace {

/// A window kept compactly (8 bytes per event) until it is replayed.
struct PackedWindow {
  TimeUs tStart = 0;
  TimeUs tEnd = 0;
  std::vector<std::uint64_t> events;  ///< x | y << 16 | p << 32 | dt << 40
};

PackedWindow pack(const EventPacket& w) {
  PackedWindow out{w.tStart(), w.tEnd(), {}};
  out.events.reserve(w.size());
  for (const Event& e : w) {
    const auto dt = static_cast<std::uint64_t>(e.t - w.tStart());
    check(dt < (1ull << 24), "replay source: event outside its window");
    out.events.push_back(
        e.x | static_cast<std::uint64_t>(e.y) << 16 |
        static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.p)) << 32 |
        dt << 40);
  }
  return out;
}

/// Replays the packed windows in order, stamping each draw.
class ReplaySource final : public EventSource {
 public:
  ReplaySource(const std::vector<PackedWindow>& windows,
               std::vector<std::int64_t>& drawNs)
      : windows_(windows), drawNs_(drawNs) {}

  [[nodiscard]] EventPacket nextWindow(TimeUs duration) override {
    check(duration == kFramePeriodUs && next_ < windows_.size(),
          "replay source: draw beyond the generated windows");
    if (next_ == 0) {
      allocsAtFirstDraw = alloc::count();
    }
    drawNs_[next_] = trace::nowNs();
    const trace::Span span(Layer::kSource);
    const PackedWindow& w = windows_[next_++];
    EventPacket out(w.tStart, w.tEnd);
    const std::span<Event> events = out.appendBuffer(w.events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const std::uint64_t v = w.events[i];
      events[i].x = static_cast<std::uint16_t>(v);
      events[i].y = static_cast<std::uint16_t>(v >> 16);
      events[i].p = static_cast<Polarity>(static_cast<std::int8_t>(v >> 32));
      events[i].t = w.tStart + static_cast<TimeUs>(v >> 40);
    }
    out.commitAppended(events.size());
    now_ = w.tEnd;
    return out;
  }
  [[nodiscard]] TimeUs now() const override { return now_; }
  [[nodiscard]] int width() const override { return kWidth; }
  [[nodiscard]] int height() const override { return kHeight; }

  std::uint64_t allocsAtFirstDraw = 0;

 private:
  const std::vector<PackedWindow>& windows_;
  std::vector<std::int64_t>& drawNs_;
  std::size_t next_ = 0;
  TimeUs now_ = 0;
};

/// Forwards everything to `inner`; after each window either stamps the
/// finish time (untraced rounds) or copies the tracks (reference and
/// traced rounds).  Adds the time spent in `inner` to `*busyNs`.
class Decorated final : public Pipeline {
 public:
  Decorated(std::unique_ptr<Pipeline> inner, std::vector<std::int64_t>* done,
            std::vector<Tracks>* tracks, std::int64_t* busyNs)
      : inner_(std::move(inner)), done_(done), tracks_(tracks),
        busyNs_(busyNs) {}

  Tracks processWindow(const EventPacket& packet) override {
    const std::int64_t start = trace::nowNs();
    Tracks t = inner_->processWindow(packet);
    const std::int64_t end = trace::nowNs();
    *busyNs_ += end - start;
    if (done_ != nullptr && next_ < done_->size()) {
      (*done_)[next_] = end;
    }
    ++next_;
    if (tracks_ != nullptr) {
      const trace::Span span(Layer::kObserver);
      tracks_->push_back(t);
    }
    return t;
  }
  [[nodiscard]] OpCounts lastOps() const override { return inner_->lastOps(); }
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] InputDomain inputDomain() const override {
    return inner_->inputDomain();
  }
  [[nodiscard]] std::size_t lastFilteredEventCount() const override {
    return inner_->lastFilteredEventCount();
  }
  void resetState() override { inner_->resetState(); }

 private:
  std::unique_ptr<Pipeline> inner_;
  std::vector<std::int64_t>* done_;
  std::vector<Tracks>* tracks_;
  std::int64_t* busyNs_;
  std::size_t next_ = 0;
};

/// Field-by-field RunResult equality; names the first difference.
void checkSameRun(const RunResult& got, const RunResult& ref,
                  const std::string& what) {
  const std::string prefix = what + ": RunResult differs from the " +
                             "threads = 1 reference in ";
  check(got.thresholds == ref.thresholds, prefix + "thresholds");
  check(got.frames == ref.frames && got.gtTracks == ref.gtTracks &&
            got.gtBoxes == ref.gtBoxes &&
            got.streamEvents == ref.streamEvents &&
            got.latchedEvents == ref.latchedEvents,
        prefix + "stream totals");
  check(got.meanAlpha == ref.meanAlpha && got.meanBeta == ref.meanBeta &&
            got.meanEventsPerFrame == ref.meanEventsPerFrame &&
            got.meanFilteredEventsPerFrame == ref.meanFilteredEventsPerFrame,
        prefix + "stream statistics");
  check(got.pipelines.size() == ref.pipelines.size(), prefix + "pipelines");
  for (std::size_t i = 0; i < got.pipelines.size(); ++i) {
    const PipelineRunStats& a = got.pipelines[i];
    const PipelineRunStats& b = ref.pipelines[i];
    const std::string p = prefix + "pipeline " + b.name + " ";
    check(a.name == b.name && a.frames == b.frames, p + "identity");
    check(a.totalOps == b.totalOps, p + "OpCounts");
    check(a.filteredEventsPerFrame == b.filteredEventsPerFrame,
          p + "filtered events");
    check(a.counts.size() == b.counts.size(), p + "PR counts");
    for (std::size_t t = 0; t < a.counts.size(); ++t) {
      check(a.counts[t].truePositives == b.counts[t].truePositives &&
                a.counts[t].predictions == b.counts[t].predictions &&
                a.counts[t].groundTruths == b.counts[t].groundTruths,
            p + "PR counts");
    }
  }
}

}  // namespace

RunOutcome runSweep(const RunOptions& options) {
  // At least 1000 windows, so one round supports its own p99.
  const int windows = options.smoke ? 1000 : 2000;
  std::vector<PackedWindow> packed;
  packed.reserve(static_cast<std::size_t>(windows));
  const EngSlice slice =
      makeEngSlice(kSweepTrafficSeed, deriveSeed(options.seed, 0x5EE9), windows,
                   [&](const EventPacket& w) { packed.push_back(pack(w)); });
  const TimeUs duration = kFramePeriodUs * windows;
  const std::vector<std::string> keys = variantRegistry().keys();
  check(keys.size() <= trace::kMaxVariants, "sweep: too many variants");
  const std::size_t nv = keys.size();
  const VariantContext ctx{kWidth, kHeight};
  std::vector<std::int64_t> drawNs(static_cast<std::size_t>(windows), 0);
  // Time each variant spent in processWindow; every pipeline instance
  // adds to its own slot (its calls never overlap).
  std::vector<std::int64_t> processNs(nv, 0);

  auto run = [&](RunnerConfig config) {
    ReplaySource source(packed, drawNs);
    RunResult result =
        runRecording(source, *slice.scenario, duration, config);
    return std::make_pair(std::move(result), source.allocsAtFirstDraw);
  };

  // Reference: the registry sweep on one thread, through decorators that
  // capture every variant's tracks and forward everything else.
  RunnerConfig base = makeRegistryRunnerConfig(kWidth, kHeight);
  base.threads = 1;
  base.variants.clear();
  std::vector<std::vector<Tracks>> refTracks(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    base.extraPipelines.push_back([&, v] {
      return std::make_unique<Decorated>(variantRegistry().build(keys[v], ctx),
                                         nullptr, &refTracks[v],
                                         &processNs[v]);
    });
  }
  const RunResult reference = run(base).first;
  check(reference.frames == static_cast<std::size_t>(windows),
        "sweep: reference did not evaluate every window");

  const int threads = std::max(1, options.threads);
  std::vector<std::vector<std::int64_t>> doneNs(
      nv, std::vector<std::int64_t>(static_cast<std::size_t>(windows), 0));
  RunnerConfig measured = base;
  measured.threads = threads;
  measured.pipelined = true;
  measured.extraPipelines.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    measured.extraPipelines.push_back([&, v] {
      return std::make_unique<Decorated>(variantRegistry().build(keys[v], ctx),
                                         &doneNs[v], nullptr, &processNs[v]);
    });
  }
  // Latency: the same variants with a barrier between windows, so each
  // window's latency is its own evaluation, not its wait behind the windows
  // the pipelined front end drew ahead of it.
  RunnerConfig perWindow = measured;
  perWindow.pipelined = false;
  std::vector<std::vector<Tracks>> tracedTracks(nv);
  RunnerConfig staged = measured;
  staged.extraPipelines.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    staged.extraPipelines.push_back([&, v] {
      return std::make_unique<Decorated>(
          makeStagedPipeline(*variantRegistry().build(keys[v], ctx),
                             static_cast<std::uint8_t>(v)),
          nullptr, &tracedTracks[v], &processNs[v]);
    });
  }

  std::vector<double> setupS;
  std::vector<double> heapMb;
  std::vector<double> throughput;
  std::vector<double> allocsPerWindow;
  std::vector<double> p50Us;
  std::vector<double> p99Us;
  std::vector<double> untracedS;
  std::vector<double> tracedS;
  std::uint64_t attempted = 0;
  LayerExtras extras;

  auto round = [&](bool traced) {
    for (auto& t : tracedTracks) {
      t.clear();
    }
    std::fill(processNs.begin(), processNs.end(), 0);
    const std::int64_t live0 = alloc::liveBytes();
    alloc::resetPeak();
    const std::uint64_t allocs0 = alloc::count();
    const std::int64_t t0 = trace::nowNs();
    const std::pair<RunResult, std::uint64_t> r =
        run(traced ? staged : measured);
    const std::int64_t t1 = trace::nowNs();
    const std::uint64_t allocsEnd = alloc::count();
    const double peakMb =
        static_cast<double>(alloc::peakBytes() - live0) / 1e6;
    checkSameRun(r.first, reference,
                 traced ? "traced round" : "measured round");
    attempted += static_cast<std::uint64_t>(windows) * nv;
    const double wallS = static_cast<double>(t1 - t0) / 1e9;
    if (traced) {
      for (std::size_t v = 0; v < nv; ++v) {
        check(tracedTracks[v] == refTracks[v],
              "traced round: " + keys[v] +
                  " tracks differ from the untraced reference");
      }
      tracedS.push_back(wallS);
      for (const std::int64_t ns : processNs) {
        extras.busyNs += static_cast<double>(ns);
      }
      extras.runnerThreadNs += static_cast<double>(threads) *
                               static_cast<double>(t1 - t0);
      extras.runnerAllocs += static_cast<double>(allocsEnd - allocs0);
      extras.runnerWindows += windows;
      return;
    }
    untracedS.push_back(wallS);
    if (options.trace) {
      return;
    }
    setupS.push_back(static_cast<double>(drawNs[0] - t0) / 1e9);
    heapMb.push_back(peakMb);
    throughput.push_back(static_cast<double>(windows) / wallS);
    allocsPerWindow.push_back(static_cast<double>(allocsEnd - r.second) /
                              static_cast<double>(windows));
    checkSameRun(run(perWindow).first, reference, "latency round");
    attempted += static_cast<std::uint64_t>(windows) * nv;
    std::vector<double> latencyUs;
    latencyUs.reserve(static_cast<std::size_t>(windows));
    for (std::size_t k = 0; k < static_cast<std::size_t>(windows); ++k) {
      std::int64_t done = 0;
      for (std::size_t v = 0; v < nv; ++v) {
        done = std::max(done, doneNs[v][k]);
      }
      latencyUs.push_back(static_cast<double>(done - drawNs[k]) / 1e3);
    }
    p50Us.push_back(percentile(latencyUs, 0.50));
    p99Us.push_back(percentile(latencyUs, 0.99));
  };

  const std::int64_t begin = trace::nowNs();
  const auto elapsedS = [&] {
    return static_cast<double>(trace::nowNs() - begin) / 1e9;
  };
  int rounds = 0;
  if (options.trace) {
    while (untracedS.size() < 2 || elapsedS() < options.seconds / 2) {
      round(false);
    }
    trace::reset();
    trace::enable();
    while (tracedS.size() < 2 || elapsedS() < options.seconds) {
      round(true);
    }
    rounds = static_cast<int>(untracedS.size() + tracedS.size());
  } else {
    while (rounds < 2 || elapsedS() < options.seconds) {
      round(false);
      ++rounds;
    }
  }

  RunOutcome outcome;
  outcome.attempted = attempted;
  outcome.notes.push_back(
      "sweep: " + std::to_string(windows) + " windows x " +
      std::to_string(nv) + " variants, " + std::to_string(rounds) +
      " rounds, " + std::to_string(threads) + " threads, pipelined");
  const PipelineRunStats* paper = reference.stats("EBBIOT");
  check(paper != nullptr, "sweep: EBBIOT missing from the registry");
  const auto at = std::find(reference.thresholds.begin(),
                            reference.thresholds.end(), 0.3F);
  check(at != reference.thresholds.end(), "sweep: no IoU 0.3 sweep point");
  const PrCounts& pr = paper->counts[static_cast<std::size_t>(
      at - reference.thresholds.begin())];

  if (!options.trace) {
    outcome.notes.push_back("latency samples per round: " +
                            std::to_string(windows));
    outcome.notes.push_back(roundsNote("throughput_wps per round", throughput));
    outcome.notes.push_back(roundsNote("latency_p50_us per round", p50Us));
    outcome.notes.push_back(roundsNote("latency_p99_us per round", p99Us));
    MetricSet& m = outcome.metrics;
    m.add("throughput_wps", median(throughput), "1/s");
    m.add("latency_p50_us", median(p50Us), "us");
    m.add("latency_p99_us", median(p99Us), "us");
    m.add("precision_iou30", pr.precision(), "ratio");
    m.add("recall_iou30", pr.recall(), "ratio");
    m.add("setup_s", median(setupS), "s");
    m.add("heap_peak_mb", median(heapMb), "MB");
    m.add("allocs_per_window", median(allocsPerWindow), "count");
    return outcome;
  }
  extras.overheadFrac = median(tracedS) / median(untracedS) - 1.0;
  addLayerMetrics(trace::totals(), extras, keys, outcome.metrics);
  return outcome;
}

}  // namespace perfbench
