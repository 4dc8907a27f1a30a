// fleet_ebbiot / fleet_ebms: 16 sensors over the full node path
// (EBF1 bytes -> NodeSupervisor::offerBytes -> FrameParser ->
// SensorSession -> SPSC queue -> NodeSupervisor::pump -> PipelineSink ->
// pipeline -> tracks) on one thread: the generator offers each chunk and
// pumps the sessions inline (a one-thread pool).
//
// Each round builds a fresh system twice from the same generated chunks:
//   * open loop: window i of the interleaved schedule is due at
//     t0 + i / rate; the generator waits for its due time, offers the
//     chunk with the *schedule* time as `now` and pumps it at once;
//     latency runs from the due time to the moment the sink's track
//     observer fires for that (sensor, seq);
//   * closed loop: the same chunks as fast as one thread takes them;
//     throughput is tracked windows per second of that phase.
// Every phase is verified against the references in the corpus.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "alloc_hook.hpp"
#include "corpus.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/variant_registry.hpp"
#include "src/eval/matching.hpp"
#include "src/node/node_supervisor.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ebbiot;
using trace::Layer;
using trace::Span;

namespace {

constexpr std::size_t kMaxTracks = 32;
constexpr std::uint8_t kNotTracked = 0xFF;
constexpr float kIou = 0.3F;

/// Per-sensor record of what the node produced in one phase.
struct Capture {
  std::vector<Track> tracks;  ///< windows * kMaxTracks slots
  std::vector<std::uint8_t> count;
  std::vector<std::int64_t> doneNs;
  std::vector<std::int64_t> dequeueNs;  ///< traced phases only
  bool bad = false;

  explicit Capture(std::size_t windows)
      : tracks(windows * kMaxTracks),
        count(windows, kNotTracked),
        doneNs(windows, 0),
        dequeueNs(windows, 0) {}

  void reset() {
    std::fill(count.begin(), count.end(), kNotTracked);
    bad = false;
  }

  void onTracks(std::uint32_t seq, const Tracks& t) {
    const std::int64_t now = trace::nowNs();
    const Span span(Layer::kObserver);
    if (seq >= count.size() || t.size() > kMaxTracks ||
        count[seq] != kNotTracked) {
      bad = true;
      return;
    }
    std::copy(t.begin(), t.end(),
              tracks.begin() + static_cast<std::ptrdiff_t>(seq * kMaxTracks));
    count[seq] = static_cast<std::uint8_t>(t.size());
    doneNs[seq] = now;
  }
};

/// WindowSink decorator: stamps the dequeue and spans onWindow.
class TracedSink final : public WindowSink {
 public:
  TracedSink(PipelineSink& inner, Capture& capture, std::uint16_t sensor)
      : inner_(inner), capture_(capture), sensor_(sensor) {}

  void onWindow(const EventPacket& window, std::uint32_t seq,
                TimeUs ingestTime) override {
    if (seq < capture_.dequeueNs.size()) {
      capture_.dequeueNs[seq] = trace::nowNs();
    }
    const Span span(Layer::kSink, trace::kNoVariant, sensor_, seq);
    inner_.onWindow(window, seq, ingestTime);
  }

 private:
  PipelineSink& inner_;
  Capture& capture_;
  std::uint16_t sensor_;
};

/// The system under test: supervisor, sessions, sinks, pipelines.
struct System {
  System(const NodeConfig& node, ThreadPool& pool) : supervisor(node, pool) {}
  NodeSupervisor supervisor;
  std::vector<std::unique_ptr<PipelineSink>> sinks;
  std::vector<std::unique_ptr<TracedSink>> tracedSinks;
  std::vector<SensorSession*> sessions;
};

std::unique_ptr<System> buildSystem(const FleetCorpus& corpus,
                                    ThreadPool& pool,
                                    std::vector<Capture>& captures,
                                    bool traced) {
  auto sys = std::make_unique<System>(corpus.node, pool);
  for (std::size_t s = 0; s < corpus.sensors.size(); ++s) {
    std::unique_ptr<Pipeline> pipeline =
        variantRegistry().build(corpus.variant, {kWidth, kHeight});
    if (traced) {
      pipeline = makeStagedPipeline(*pipeline, 0);
    }
    auto sink = std::make_unique<PipelineSink>(std::move(pipeline), kWidth,
                                               kHeight, corpus.sink);
    Capture* capture = &captures[s];
    sink->setTrackObserver([capture](std::uint32_t seq, const Tracks& t) {
      capture->onTracks(seq, t);
    });
    WindowSink* target = sink.get();
    if (traced) {
      sys->tracedSinks.push_back(std::make_unique<TracedSink>(
          *sink, *capture, corpus.sensors[s].id));
      target = sys->tracedSinks.back().get();
    }
    sys->sessions.push_back(
        &sys->supervisor.addSensor({corpus.sensors[s].id, 0, target}));
    sys->sinks.push_back(std::move(sink));
  }
  return sys;
}

struct PhaseResult {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t busyNs = 0;  ///< phase wall time minus the due-time waits
  std::vector<std::int64_t> sentNs;  ///< per global schedule index
  std::vector<std::int64_t> enqNs;   ///< per index, after offerBytes
  std::uint64_t allocsMid = 0;
  std::uint64_t allocsEnd = 0;
  std::size_t midIndex = 0;
  std::size_t backlogMax = 0;
};

/// Deliver every queued window (one pump drains all sessions inline).
void pumpAll(System& sys, TimeUs now) {
  while (sys.supervisor.totalBacklog() > 0) {
    const Span span(Layer::kSupervisorPump);
    const NodeSupervisor::PumpStats stats = sys.supervisor.pump(now);
    trace::count(trace::Counter::kPumpWindows, stats.windowsDelivered);
  }
}

/// One phase over the first `windows` windows of every sensor, on the
/// calling thread.  Schedule index i = k * S + s (window k of sensor s;
/// windows interleave across sensors).  The open loop waits for each due
/// time, offers the chunk and pumps it straight away; the closed loop
/// offers window k of every sensor and then pumps them together.
PhaseResult runPhase(System& sys, const FleetCorpus& corpus,
                     std::size_t windows, bool openLoop, double rateWps,
                     bool traced) {
  const std::size_t sensors = corpus.sensors.size();
  const std::size_t total = sensors * windows;
  PhaseResult out;
  out.sentNs.assign(total, 0);
  out.enqNs.assign(total, 0);
  out.midIndex = total / 2;
  const double periodNs = openLoop ? 1e9 / rateWps : 0.0;
  const std::int64_t beginNs = trace::nowNs();
  std::int64_t idleNs = 0;
  // A short lead so the first due time is not already late.
  out.startNs = trace::nowNs() + (openLoop ? 1'000'000 : 0);
  for (std::size_t k = 0; k < windows; ++k) {
    TimeUs now = 0;
    for (std::size_t s = 0; s < sensors; ++s) {
      const std::size_t i = k * sensors + s;
      if (openLoop) {
        const std::int64_t waitFrom = trace::nowNs();
        waitUntilNs(out.startNs +
                    static_cast<std::int64_t>(static_cast<double>(i) *
                                              periodNs));
        idleNs += trace::nowNs() - waitFrom;
      }
      if (i == out.midIndex) {
        out.allocsMid = alloc::count();
      }
      now = corpus.scheduleUs(s, k);
      const std::vector<std::byte>& chunk = corpus.sensors[s].chunks[k];
      out.sentNs[i] = trace::nowNs();
      {
        const Span span(Layer::kSessionOffer, trace::kNoVariant,
                        corpus.sensors[s].id, static_cast<std::uint32_t>(k));
        sys.supervisor.offerBytes(corpus.sensors[s].id, chunk, now);
      }
      if (traced) {
        out.enqNs[i] = trace::nowNs();
        trace::count(trace::Counter::kOfferBytes, chunk.size());
        out.backlogMax = std::max(out.backlogMax, sys.sessions[s]->backlog());
      }
      if (openLoop) {
        pumpAll(sys, now);
      }
    }
    if (!openLoop) {
      pumpAll(sys, now);
    }
  }
  out.endNs = trace::nowNs();
  out.busyNs = out.endNs - beginNs - idleNs;
  out.allocsEnd = alloc::count();
  return out;
}

/// Tracks, session counters and sink counters of a phase that streamed
/// the first `windows` windows of every sensor, against the corpus
/// references.  Returns the number of windows tracked.
std::uint64_t verifyPhase(const FleetCorpus& corpus, std::size_t windows,
                          const System& sys,
                          const std::vector<Capture>& captures,
                          const char* phase) {
  const bool whole = windows == static_cast<std::size_t>(corpus.windows);
  std::uint64_t tracked = 0;
  const std::string where = std::string(phase) + " phase, sensor ";
  for (std::size_t s = 0; s < corpus.sensors.size(); ++s) {
    const SensorCorpus& sensor = corpus.sensors[s];
    const Capture& capture = captures[s];
    const std::string id = where + std::to_string(sensor.id);
    check(!capture.bad, id + ": observer saw an unexpected window");
    for (std::size_t k = 0; k < windows; ++k) {
      const auto& expected = sensor.expected[k];
      const bool got = capture.count[k] != kNotTracked;
      check(got == expected.has_value(),
            id + ", seq " + std::to_string(k) +
                (got ? ": tracked a window the reference lost"
                     : ": window never tracked"));
      if (!got) {
        continue;
      }
      ++tracked;
      const auto first =
          capture.tracks.begin() + static_cast<std::ptrdiff_t>(k * kMaxTracks);
      check(expected->size() == capture.count[k] &&
                std::equal(expected->begin(), expected->end(), first),
            id + ", seq " + std::to_string(k) +
                ": tracks differ from the single-threaded reference");
    }
    const SessionCounters session = sys.sessions[s]->counters();
    const PipelineSink::Counters sink = sys.sinks[s]->counters();
    if (sensor.faulted) {
      check(session == (whole ? sensor.expectedSession
                              : sensor.expectedSessionOpen),
            id + ": SessionCounters differ from the standalone replay");
      check(sink == (whole ? sensor.expectedSink : sensor.expectedSinkOpen),
            id + ": PipelineSink counters differ from the standalone replay");
    } else {
      const auto w = static_cast<std::uint64_t>(windows);
      check(session.framesAccepted == w && session.windowsDelivered == w &&
                session.framesCorrupted == 0 && session.resyncs == 0 &&
                session.windowsRejected == 0,
            id + ": clean session did not deliver every window once");
      check(sink.windowsTracked == w && sink.windowsCoasted == 0 &&
                sink.resyncRestores == 0 && sink.resyncResets == 0,
            id + ": clean sink did not track every window once");
    }
  }
  return tracked;
}

struct Accuracy {
  double precision = 0;
  double recall = 0;
  std::uint64_t lost = 0;
  std::uint64_t offered = 0;
};

/// The paper pipeline's delivered tracks (verified equal to the
/// references every phase) scored against simulator ground truth.
Accuracy scoreCorpus(const FleetCorpus& corpus) {
  std::uint64_t tp = 0;
  std::uint64_t predictions = 0;
  std::uint64_t truths = 0;
  Accuracy out;
  for (const SensorCorpus& sensor : corpus.sensors) {
    for (std::size_t k = 0; k < sensor.expected.size(); ++k) {
      ++out.offered;
      const std::vector<GtBox>& gt = sensor.gt[k].boxes;
      if (!sensor.expected[k].has_value()) {
        ++out.lost;
        truths += gt.size();
        continue;
      }
      const FrameMatchResult m = matchFrame(*sensor.expected[k], gt, kIou);
      tp += m.truePositives();
      predictions += m.predictions;
      truths += m.groundTruths;
    }
  }
  check(predictions > 0 && truths > 0, "accuracy: no predictions or truths");
  out.precision = static_cast<double>(tp) / static_cast<double>(predictions);
  out.recall = static_cast<double>(tp) / static_cast<double>(truths);
  return out;
}

}  // namespace

RunOutcome runFleet(const RunOptions& options) {
  const bool ebms = options.workload == "fleet_ebms";
  FleetSpec spec;
  spec.variant = ebms ? "EBMS" : "EBBIOT";
  // Closed loop streams all 128 windows per sensor; open loop the first
  // kOpenWindows (1024 samples per round, enough for its own p99), so
  // rounds stay short and many.
  spec.windows = options.smoke ? kOpenWindows : 128;
  if (!ebms) {
    spec.faultEvery = 4;
    spec.bitFlipProb = 0.005;
    spec.truncateProb = 0.002;
  }
  const double rate = ebms ? options.ebmsRateWps : options.ebbiotRateWps;
  check(rate > 0, "fleet: open-loop rate must be positive");

  const FleetCorpus corpus = makeFleetCorpus(spec, options.seed);
  const Accuracy accuracy = scoreCorpus(corpus);

  // One thread: the generator pumps the sessions inline.
  ThreadPool pool(1);

  std::vector<Capture> captures;
  captures.reserve(corpus.sensors.size());
  for (std::size_t s = 0; s < corpus.sensors.size(); ++s) {
    captures.emplace_back(static_cast<std::size_t>(corpus.windows));
  }

  std::vector<double> setupS;
  std::vector<double> heapMb;
  std::vector<double> throughput;
  std::vector<double> allocsPerWindow;
  std::vector<double> p50Us;  ///< per open-loop round
  std::vector<double> p99Us;
  std::size_t latencySamples = 0;
  std::vector<std::int64_t> dueAll;
  std::vector<std::int64_t> sentAll;
  std::vector<double> queueWaitUs;
  std::vector<double> untracedClosedS;
  std::vector<double> tracedClosedS;
  std::size_t backlogMax = 0;
  double tracedWallNs = 0;  ///< summed traced phase wall time
  double tracedBusyNs = 0;  ///< the same minus the due-time waits
  std::uint64_t attempted = 0;
  SessionCounters sessionTotals;
  PipelineSink::Counters sinkTotals;
  int rounds = 0;

  auto phase = [&](bool openLoop, bool traced) {
    for (Capture& c : captures) {
      c.reset();
    }
    const std::int64_t live0 = alloc::liveBytes();
    alloc::resetPeak();
    const std::int64_t t0 = trace::nowNs();
    std::unique_ptr<System> sys = buildSystem(corpus, pool, captures, traced);
    setupS.push_back(static_cast<double>(trace::nowNs() - t0) / 1e9);
    const auto windows = static_cast<std::size_t>(
        openLoop ? kOpenWindows : corpus.windows);
    const std::size_t total = corpus.sensors.size() * windows;
    const PhaseResult r =
        runPhase(*sys, corpus, windows, openLoop, rate, traced);
    heapMb.push_back(static_cast<double>(alloc::peakBytes() - live0) / 1e6);
    const std::uint64_t tracked = verifyPhase(
        corpus, windows, *sys, captures, openLoop ? "open" : "closed");
    attempted += total;
    if (openLoop) {
      std::vector<double> latencyUs;
      latencyUs.reserve(total);
      for (std::size_t s = 0; s < corpus.sensors.size(); ++s) {
        for (std::size_t k = 0; k < windows; ++k) {
          const std::size_t i = k * corpus.sensors.size() + s;
          const std::int64_t due =
              r.startNs + static_cast<std::int64_t>(static_cast<double>(i) *
                                                    1e9 / rate);
          if (traced) {
            dueAll.push_back(due);
            sentAll.push_back(r.sentNs[i]);
          }
          const Capture& c = captures[s];
          if (c.count[k] == kNotTracked) {
            latencyUs.push_back(std::numeric_limits<double>::infinity());
            continue;
          }
          latencyUs.push_back(static_cast<double>(c.doneNs[k] - due) / 1e3);
          if (traced) {
            queueWaitUs.push_back(
                static_cast<double>(
                    std::max<std::int64_t>(c.dequeueNs[k] - r.enqNs[i], 0)) /
                1e3);
          }
        }
      }
      p50Us.push_back(percentile(latencyUs, 0.50));
      p99Us.push_back(percentile(latencyUs, 0.99));
      latencySamples = latencyUs.size();
      if (traced) {
        backlogMax = std::max(backlogMax, r.backlogMax);
      }
    } else {
      const double wallNs = static_cast<double>(r.endNs - r.startNs);
      throughput.push_back(static_cast<double>(tracked) * 1e9 / wallNs);
      allocsPerWindow.push_back(
          static_cast<double>(r.allocsEnd - r.allocsMid) /
          static_cast<double>(total - r.midIndex));
      (traced ? tracedClosedS : untracedClosedS).push_back(wallNs / 1e9);
    }
    if (traced) {
      tracedWallNs += static_cast<double>(r.endNs - r.startNs);
      tracedBusyNs += static_cast<double>(r.busyNs);
      for (std::size_t s = 0; s < corpus.sensors.size(); ++s) {
        const SessionCounters c = sys->sessions[s]->counters();
        sessionTotals.resyncs += c.resyncs;
        sessionTotals.framesCorrupted += c.framesCorrupted;
        const PipelineSink::Counters k = sys->sinks[s]->counters();
        sinkTotals.windowsCoasted += k.windowsCoasted;
        sinkTotals.resyncRestores += k.resyncRestores;
      }
    }
  };

  const std::int64_t begin = trace::nowNs();
  const auto elapsedS = [&] {
    return static_cast<double>(trace::nowNs() - begin) / 1e9;
  };
  const double untracedS = options.trace ? options.seconds / 2 : 0.0;
  if (options.trace) {
    // Untraced closed-loop baseline for the tracing overhead.
    while (untracedClosedS.size() < 2 || elapsedS() < untracedS) {
      phase(false, false);
    }
    trace::reset();
    trace::enable();
  }
  // Rounds until the time is spent; at least two.
  while (rounds < 2 || elapsedS() < options.seconds) {
    phase(true, options.trace);
    phase(false, options.trace);
    ++rounds;
  }

  RunOutcome outcome;
  outcome.attempted = attempted;
  outcome.notes.push_back(
      "fleet " + corpus.variant + ": " + std::to_string(corpus.sensors.size()) +
      " sensors x " + std::to_string(corpus.windows) + " windows, " +
      std::to_string(rounds) + " rounds, 1 thread, offered " +
      std::to_string(rate) + " windows/s open loop");
  outcome.notes.push_back("latency samples per round: " +
                          std::to_string(latencySamples) + " (windows lost to faults per full pass: " +
                          std::to_string(accuracy.lost) + ")");
  outcome.notes.push_back(roundsNote("throughput_wps per round", throughput));
  outcome.notes.push_back(roundsNote("latency_p50_us per round", p50Us));
  outcome.notes.push_back(roundsNote("latency_p99_us per round", p99Us));

  if (!options.trace) {
    MetricSet& m = outcome.metrics;
    m.add("throughput_wps", median(throughput), "1/s");
    m.add("latency_p50_us", median(p50Us), "us");
    m.add("latency_p99_us", lowestQuarter(p99Us), "us");
    m.add("precision_iou30", accuracy.precision, "ratio");
    m.add("recall_iou30", accuracy.recall, "ratio");
    m.add("setup_s", median(setupS), "s");
    m.add("heap_peak_mb", median(heapMb), "MB");
    m.add("allocs_per_window", median(allocsPerWindow), "count");
    return outcome;
  }

  const double perRound = 1.0 / (2.0 * rounds);  // traced phases
  const trace::Totals totals = trace::totals();
  const double offerBusyNs =
      static_cast<double>(totals.layer(Layer::kSessionOffer).totalNs);
  LayerExtras extras;
  extras.sessionBusyFrac = offerBusyNs / tracedWallNs;
  extras.busyNs = tracedBusyNs;
  extras.sessionBytesPerS =
      offerBusyNs > 0
          ? static_cast<double>(totals.counter(trace::Counter::kOfferBytes)) *
                1e9 / offerBusyNs
          : 0;
  extras.resyncs = static_cast<double>(sessionTotals.resyncs) * perRound;
  extras.framesCorrupted =
      static_cast<double>(sessionTotals.framesCorrupted) * perRound;
  extras.queueWaitP50Us = percentile(queueWaitUs, 0.50);
  extras.queueWaitP99Us = percentile(queueWaitUs, 0.99);
  extras.backlogMax = static_cast<double>(backlogMax);
  extras.windowsCoasted =
      static_cast<double>(sinkTotals.windowsCoasted) * perRound;
  extras.resyncRestores =
      static_cast<double>(sinkTotals.resyncRestores) * perRound;
  extras.genLagP99Us = latenessP99Us(dueAll, sentAll);
  extras.overheadFrac = median(tracedClosedS) / median(untracedClosedS) - 1.0;
  extras.failedFrac = static_cast<double>(accuracy.lost) /
                      static_cast<double>(accuracy.offered);
  extras.latencySamples = static_cast<double>(latencySamples);
  addLayerMetrics(totals, extras, {corpus.variant}, outcome.metrics);
  return outcome;
}

}  // namespace perfbench
