#include "corpus.hpp"

#include <memory>

#include "src/core/variant_registry.hpp"
#include "src/node/fault_injection.hpp"
#include "src/node/wire_format.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/recording.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ebbiot;

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent, well-mixed stream seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

EngSlice makeEngSlice(std::uint64_t trafficSeed, std::uint64_t eventSeed,
                      int windows,
                      const std::function<void(const EventPacket&)>& onWindow) {
  RecordingSpec spec = makeSyntheticEng(trafficSeed);
  spec.synth.seed = eventSeed;
  EngSlice slice;
  slice.scenario = std::make_unique<TrafficScenario>(
      spec.traffic,
      kFramePeriodUs * static_cast<TimeUs>(kWarmupWindows + windows));
  FastEventSynth synth(*slice.scenario, spec.synth);
  for (int k = 0; k < kWarmupWindows; ++k) {
    (void)synth.nextWindow(kFramePeriodUs);
  }
  slice.gt.reserve(static_cast<std::size_t>(windows));
  for (int k = 0; k < windows; ++k) {
    const EventPacket window = synth.nextWindow(kFramePeriodUs);
    slice.gt.push_back(annotateScene(*slice.scenario, window.tEnd(),
                                     GtOptions{}));
    onWindow(window);
  }
  return slice;
}

TimeUs FleetCorpus::scheduleUs(std::size_t sensor, std::size_t k) const {
  const auto n = static_cast<TimeUs>(sensors.size());
  return static_cast<TimeUs>(k + 1) * kFramePeriodUs +
         static_cast<TimeUs>(sensor) * kFramePeriodUs / n;
}

namespace {

/// Single-threaded standalone replay: one SensorSession and one
/// PipelineSink, each chunk offered at its schedule time and drained at
/// once.  Reference for faulted sensors.
void replayStandalone(const FleetCorpus& corpus, std::size_t s,
                      SensorCorpus& sensor) {
  SensorSession session(sensor.id, corpus.node);
  PipelineSink sink(variantRegistry().build(corpus.variant,
                                            {kWidth, kHeight}),
                    kWidth, kHeight, corpus.sink);
  sensor.expected.assign(sensor.chunks.size(), std::nullopt);
  bool outOfRange = false;
  sink.setTrackObserver([&](std::uint32_t seq, const Tracks& tracks) {
    if (seq < sensor.expected.size()) {
      sensor.expected[seq] = tracks;
    } else {
      outOfRange = true;
    }
  });
  for (std::size_t k = 0; k < sensor.chunks.size(); ++k) {
    const TimeUs now = corpus.scheduleUs(s, k);
    session.offerBytes(sensor.chunks[k], now);
    (void)session.drainInto(sink, now);
    if (k + 1 == static_cast<std::size_t>(kOpenWindows)) {
      sensor.expectedSessionOpen = session.counters();
      sensor.expectedSinkOpen = sink.counters();
    }
  }
  check(!outOfRange, "reference replay: sequence number out of range");
  sensor.expectedSession = session.counters();
  sensor.expectedSink = sink.counters();
}

}  // namespace

FleetCorpus makeFleetCorpus(const FleetSpec& spec, std::uint64_t seed) {
  FleetCorpus corpus;
  corpus.variant = spec.variant;
  check(spec.windows >= kOpenWindows,
        "corpus: fewer windows than the open loop streams");
  corpus.windows = spec.windows;
  corpus.node.width = kWidth;
  corpus.node.height = kHeight;
  // Lossless delivery: the consumer runs every queued window, and the
  // generator waits for room instead of overfilling the queue, so what
  // each sensor delivers never depends on thread timing.
  corpus.node.backpressure = BackpressurePolicy::kRejectPacket;
  corpus.node.queueCapacity = 16;
  corpus.sensors.resize(kSensors);

  for (int s = 0; s < kSensors; ++s) {
    SensorCorpus& sensor = corpus.sensors[static_cast<std::size_t>(s)];
    sensor.id = static_cast<std::uint16_t>(s);
    sensor.faulted = spec.faultEvery > 0 && (s + 1) % spec.faultEvery == 0;
    // Clean sensors' reference: a direct single-threaded replay of the
    // pipeline on the pristine windows, bypassing the node entirely.
    std::unique_ptr<Pipeline> reference =
        variantRegistry().build(corpus.variant, {kWidth, kHeight});
    const bool latched =
        reference->inputDomain() == InputDomain::kLatchedFrame;
    std::vector<std::vector<std::byte>> frames;
    frames.reserve(static_cast<std::size_t>(spec.windows));
    EngSlice slice = makeEngSlice(
        kFleetTrafficSeed + static_cast<std::uint64_t>(s),
        deriveSeed(seed, static_cast<std::uint64_t>(s)), spec.windows,
        [&](const EventPacket& w) {
          std::vector<std::byte> bytes;
          encodeFrame(bytes, static_cast<std::uint32_t>(frames.size()),
                      sensor.id, w);
          frames.push_back(std::move(bytes));
          if (!sensor.faulted) {
            sensor.expected.emplace_back(reference->processWindow(
                latched ? latchReadout(w, kWidth, kHeight) : w));
          }
        });
    sensor.gt = std::move(slice.gt);

    if (sensor.faulted) {
      FaultInjector injector(deriveSeed(seed, 0xFA000 + sensor.id));
      FaultProfile profile;
      profile.bitFlipProb = spec.bitFlipProb;
      profile.truncateProb = spec.truncateProb;
      injector.setProfile(profile);
      std::vector<DeliveryChunk> chunks = injector.corrupt(frames);
      // bitflip/truncate keep one delivery per frame at the nominal
      // one-window pacing, so chunk k stays on window k's schedule slot.
      check(chunks.size() == frames.size(),
            "corpus: fault injection changed the chunk count");
      for (DeliveryChunk& chunk : chunks) {
        check(chunk.delayUs == kFramePeriodUs,
              "corpus: fault injection changed the pacing");
        sensor.chunks.push_back(std::move(chunk.bytes));
      }
    } else {
      sensor.chunks = std::move(frames);
    }
    if (sensor.faulted) {
      replayStandalone(corpus, static_cast<std::size_t>(s), sensor);
    }
  }
  return corpus;
}

}  // namespace perfbench
