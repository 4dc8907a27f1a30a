// Inputs generated before any measurement: simulator windows encoded as
// EBF1 frames (optionally corrupted by the library's seeded
// FaultInjector), ground truth from each slice's TrafficScenario, and
// the reference outputs every run is verified against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/node/node_config.hpp"
#include "src/node/pipeline_sink.hpp"
#include "src/node/sensor_session.hpp"
#include "src/sim/ground_truth.hpp"
#include "src/sim/traffic.hpp"

namespace perfbench {

inline constexpr int kWidth = 240;
inline constexpr int kHeight = 180;
inline constexpr ebbiot::TimeUs kFramePeriodUs = 66'000;
/// Traffic schedules: fleet sensor s uses kFleetTrafficSeed + s, the
/// sweep kSweepTrafficSeed (see makeEngSlice).
inline constexpr std::uint64_t kFleetTrafficSeed = 1001;
inline constexpr std::uint64_t kSweepTrafficSeed = 7;
inline constexpr int kWarmupWindows = 45;  // ~3 s
/// Fleet sensors, and the windows per sensor the open-loop phase streams
/// (the first kOpenWindows of each; 1024 latency samples per round).
inline constexpr int kSensors = 16;
inline constexpr int kOpenWindows = 64;

/// Seed of one independent stream derived from the run seed.
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed,
                                       std::uint64_t stream);

/// One SyntheticENG slice at 240x180, tF = 66 ms: `onWindow` receives
/// each of `windows` consecutive raw (stream-mode) windows in order; the
/// slice keeps its scenario and the ground truth at every window end.
/// The slice starts kWarmupWindows into its recording, once the lanes have
/// filled (a recording starts with an empty scene).
///
/// `trafficSeed` fixes the traffic schedule (which objects cross when);
/// `eventSeed` draws everything the sensor makes of it (edge and interior
/// events, background noise).  The workloads fix each slice's traffic and
/// take the event seed from the run seed, so every seed measures the same
/// traffic mix: per-window work then varies by well under 1% between
/// seeds instead of the ~15% that a fresh 66-second Poisson schedule
/// brings, and run-to-run spread measures the program, not the traffic.
struct EngSlice {
  std::unique_ptr<ebbiot::TrafficScenario> scenario;
  std::vector<ebbiot::GtFrame> gt;
};
[[nodiscard]] EngSlice makeEngSlice(
    std::uint64_t trafficSeed, std::uint64_t eventSeed, int windows,
    const std::function<void(const ebbiot::EventPacket&)>& onWindow);

/// One fleet sensor: its transport chunks (chunk k carries window k and
/// is due at scheduleUs(k)) and what the node must produce from them.
struct SensorCorpus {
  std::uint16_t id = 0;
  bool faulted = false;
  std::vector<std::vector<std::byte>> chunks;
  std::vector<ebbiot::GtFrame> gt;
  /// Reference tracks per seq; nullopt where the window is never tracked.
  std::vector<std::optional<ebbiot::Tracks>> expected;
  /// Standalone single-threaded session + sink replay (faulted sensors),
  /// after the whole stream and after its first kOpenWindows.
  ebbiot::SessionCounters expectedSession;
  ebbiot::PipelineSink::Counters expectedSink;
  ebbiot::SessionCounters expectedSessionOpen;
  ebbiot::PipelineSink::Counters expectedSinkOpen;
};

struct FleetCorpus {
  std::string variant;  ///< registry key of the per-sensor pipeline
  int windows = 0;      ///< per sensor
  ebbiot::NodeConfig node;
  ebbiot::PipelineSinkConfig sink;
  std::vector<SensorCorpus> sensors;

  /// Virtual schedule time (the `now` offered with chunk k of sensor s):
  /// the end of window k plus the sensor's fixed phase.
  [[nodiscard]] ebbiot::TimeUs scheduleUs(std::size_t sensor,
                                          std::size_t k) const;
};

struct FleetSpec {
  std::string variant;
  int windows = 128;  ///< per sensor, at least kOpenWindows
  /// Every `faultEvery`-th sensor (1-based) carries faults; 0 = none.
  int faultEvery = 0;
  double bitFlipProb = 0.0;
  double truncateProb = 0.0;
};

/// Generate every sensor's stream and its reference outputs.
[[nodiscard]] FleetCorpus makeFleetCorpus(const FleetSpec& spec,
                                          std::uint64_t seed);

}  // namespace perfbench
