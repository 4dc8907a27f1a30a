// Steady-state allocation audit of the frame-domain front end.
//
// The per-frame hot path (EBBI build -> median filter -> RPN) reuses its
// buffers — images, count image, histogram bins, run and proposal vectors
// are all members with stable capacity.  This test pins that: after one
// warm-up window, processing further windows performs *zero* heap
// allocations.  Allocations are counted by replacing the global operator
// new/delete for this test binary (they forward to malloc/free, so every
// other test is unaffected beyond a relaxed atomic increment).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/common/alloc_counter.hpp"
#include "src/common/rng.hpp"
#include "src/core/front_end.hpp"
#include "src/core/pipeline.hpp"
#include "src/detect/cca_reference.hpp"
#include "src/filters/median_filter_incremental.hpp"
#include "src/filters/nn_filter.hpp"
#include "src/node/pipeline_sink.hpp"
#include "src/node/sensor_session.hpp"
#include "src/sim/latch_readout.hpp"
#include "src/node/wire_format.hpp"
#include "src/trackers/ebms.hpp"

namespace ebbiot {
namespace {

std::atomic<std::uint64_t>& gAllocations = gAllocationCount;

EventPacket denseTrafficWindow(std::uint64_t seed) {
  Rng rng(seed);
  EventPacket packet(0, 66000);
  // A vehicle-sized blob plus salt noise, enough to drive every front-end
  // stage (median, downsample, histograms, runs, validation, tightening).
  for (int y = 60; y < 90; ++y) {
    for (int x = 40; x < 110; ++x) {
      if (rng.chance(0.6)) {
        packet.push(Event{static_cast<std::uint16_t>(x),
                          static_cast<std::uint16_t>(y), Polarity::kOn,
                          1000});
      }
    }
  }
  for (int i = 0; i < 150; ++i) {
    packet.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 239)),
                      static_cast<std::uint16_t>(rng.uniformInt(0, 179)),
                      Polarity::kOn, 2000});
  }
  return packet;
}

TEST(AllocationAuditTest, FrontEndSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  for (RpnKind kind : {RpnKind::kHistogram, RpnKind::kCca}) {
    for (bool incremental : {false, true}) {
      FrontEndConfig config;
      config.rpnKind = kind;
      config.incrementalMedian = incremental;
      FrameFrontEnd frontEnd(config);
      // Two distinct windows so the incremental median's diff path (not
      // just its identical-frame early-out) runs in the measured loop.
      const EventPacket packetA = denseTrafficWindow(5);
      const EventPacket packetB = denseTrafficWindow(6);
      (void)frontEnd.process(packetA);  // warm-up: capacities grow here
      (void)frontEnd.process(packetB);
      const std::uint64_t before = gAllocations.load();
      for (int i = 0; i < 10; ++i) {
        (void)frontEnd.process(i % 2 == 0 ? packetA : packetB);
      }
      const std::uint64_t after = gAllocations.load();
      EXPECT_EQ(after - before, 0U)
          << (kind == RpnKind::kHistogram ? "histogram" : "cca")
          << (incremental ? " (incremental median)" : "")
          << " front end allocated in steady state";
    }
  }
}

TEST(AllocationAuditTest, EbmsTracksPathSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The full event-domain tracks path: NN filter -> SoA EBMS tracker ->
  // visibleTracksInto/allClustersInto.  The tracker's SoA state and
  // history rings are sized at construction and the track vectors are
  // reused, so after warm-up the whole chain performs zero allocations
  // per window (EbmsPipeline drives exactly this chain internally).
  EbmsConfig ebmsConfig;
  ebmsConfig.positionSampleInterval = 2'000;  // exercise the history ring
  EbmsTracker tracker(ebmsConfig);
  NnFilter filter{NnFilterConfig{}};
  Rng rng(31);
  std::vector<EventPacket> windows;
  for (int w = 0; w < 4; ++w) {
    EventPacket p(w * 66'000, (w + 1) * 66'000);
    for (int i = 0; i < 600; ++i) {
      const int x = 60 + static_cast<int>(rng.uniformInt(0, 59));
      const int y = 70 + static_cast<int>(rng.uniformInt(0, 29));
      p.push(Event{static_cast<std::uint16_t>(x),
                   static_cast<std::uint16_t>(y), Polarity::kOn,
                   static_cast<TimeUs>(w * 66'000 + i * 100)});
    }
    windows.push_back(std::move(p));
  }
  EventPacket filtered;
  Tracks visible;
  Tracks all;
  for (const EventPacket& p : windows) {  // warm-up: capacities grow here
    filter.filterInto(p, filtered);
    tracker.processPacket(filtered);
    tracker.visibleTracksInto(visible);
    tracker.allClustersInto(all);
  }
  const std::uint64_t before = gAllocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    filter.reset();  // replaying the same windows keeps timestamps sane
    for (const EventPacket& p : windows) {
      filter.filterInto(p, filtered);
      tracker.processPacket(filtered);
      tracker.visibleTracksInto(visible);
      tracker.allClustersInto(all);
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "EBMS tracks path allocated in steady state";
}

TEST(AllocationAuditTest, IncrementalMedianSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  MedianFilterIncremental median(3);
  Rng rng(17);
  std::vector<BinaryImage> frames;
  for (int f = 0; f < 3; ++f) {
    BinaryImage img(240, 180);
    for (int i = 0; i < 2000; ++i) {
      img.set(static_cast<int>(rng.uniformInt(0, 239)),
              static_cast<int>(rng.uniformInt(0, 179)), true);
    }
    frames.push_back(std::move(img));
  }
  for (const BinaryImage& f : frames) {
    (void)median.apply(f);  // warm-up
  }
  const std::uint64_t before = gAllocations.load();
  for (int i = 0; i < 12; ++i) {
    (void)median.apply(frames[static_cast<std::size_t>(i % 3)]);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U);
}

TEST(AllocationAuditTest, CcaLabelerSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The run-based labeller's scratch (run lists, union-find, extents,
  // components, proposals, binarisation image) is all reused members;
  // cycling different frames after warm-up must not allocate.  The scalar
  // reference reuses its scratch the same way.
  Rng rng(11);
  std::vector<BinaryImage> frames;
  std::vector<CountImage> downs;
  for (int f = 0; f < 4; ++f) {
    BinaryImage img(240, 180);
    for (int i = 0; i < 3000; ++i) {
      img.set(static_cast<int>(rng.uniformInt(0, 239)),
              static_cast<int>(rng.uniformInt(0, 179)), true);
    }
    frames.push_back(std::move(img));
    CountImage down(40, 60);
    for (int i = 0; i < 400; ++i) {
      down.at(static_cast<int>(rng.uniformInt(0, 39)),
              static_cast<int>(rng.uniformInt(0, 59))) = 1;
    }
    downs.push_back(std::move(down));
  }
  CcaConfig config;
  config.minComponentPixels = 1;
  CcaLabeler cca(config);
  CcaLabelerReference reference(config);
  for (int f = 0; f < 4; ++f) {  // warm-up: capacities grow here
    (void)cca.propose(frames[static_cast<std::size_t>(f)]);
    (void)cca.labelDownsampled(downs[static_cast<std::size_t>(f)], 6, 3);
    (void)reference.propose(frames[static_cast<std::size_t>(f)]);
  }
  const std::uint64_t before = gAllocations.load();
  for (int i = 0; i < 12; ++i) {
    (void)cca.propose(frames[static_cast<std::size_t>(i % 4)]);
    (void)cca.labelDownsampled(downs[static_cast<std::size_t>(i % 4)], 6, 3);
    (void)reference.propose(frames[static_cast<std::size_t>(i % 4)]);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "CCA labelling allocated in steady state";
}

TEST(AllocationAuditTest, SensorSessionHotPathAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The ingest hot path — offerBytes (parser reassembly + in-place
  // validation) through the SPSC ring (records decoded straight into
  // each slot's reused EventPacket) to drainInto — must be
  // allocation-free once every ring slot's window has grown to the
  // stream's event count.  Frames are pre-encoded so only session
  // machinery is measured.
  NodeConfig config;
  config.width = 64;
  config.height = 48;
  config.maxEventsPerFrame = 64;
  SensorSession session(7, config);

  struct CountingSink final : WindowSink {
    std::size_t windows = 0;
    std::size_t events = 0;
    void onWindow(const EventPacket& window, std::uint32_t /*seq*/,
                  TimeUs /*ingestTime*/) override {
      ++windows;
      events += window.size();
    }
  } sink;

  constexpr TimeUs kPeriod = 10'000;
  const auto encodeSeq = [](std::uint32_t seq) {
    const TimeUs tStart = static_cast<TimeUs>(seq) * kPeriod;
    EventPacket window(tStart, tStart + kPeriod);
    for (std::uint32_t j = 0; j < 40; ++j) {
      window.push(Event{static_cast<std::uint16_t>((seq + 3 * j) % 64),
                        static_cast<std::uint16_t>((seq + j) % 48),
                        j % 2 == 0 ? Polarity::kOn : Polarity::kOff,
                        tStart + static_cast<TimeUs>(j) * 100});
    }
    std::vector<std::byte> bytes;
    encodeFrame(bytes, seq, 7, window);
    return bytes;
  };
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    frames.push_back(encodeSeq(seq));
  }

  // Warm-up: cycle every ring slot so each slot's window reaches capacity.
  std::uint32_t seq = 0;
  for (; seq < 32; ++seq) {
    session.offerBytes(frames[seq], static_cast<TimeUs>(seq + 1) * kPeriod);
    (void)session.drainInto(sink, static_cast<TimeUs>(seq + 1) * kPeriod);
  }
  const std::uint64_t before = gAllocations.load();
  for (; seq < 64; ++seq) {
    session.offerBytes(frames[seq], static_cast<TimeUs>(seq + 1) * kPeriod);
    (void)session.drainInto(sink, static_cast<TimeUs>(seq + 1) * kPeriod);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "sensor session ingest/drain allocated in steady state";
  EXPECT_EQ(session.counters().framesAccepted, 64U);
  EXPECT_EQ(sink.windows, 64U);
  EXPECT_EQ(sink.events, 64U * 40U);
}

TEST(AllocationAuditTest, SessionIntoEbmsPipelineSinkAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The whole node path of one sensor, wire bytes to tracks: offerBytes
  // (reassembly, CRC, in-place validation, decode into the queue slot)
  // -> drainInto -> PipelineSink -> EbmsPipeline (NN filter -> EBMS) ->
  // tracks copied into the sink's reused vector.  Once warm it must not
  // allocate, including across an idle-coast episode and the snapshot
  // restore that ends it.  (The snapshot is saved only when coasting
  // starts, so its vectors reach the live state's high-water capacity
  // over coast episodes; the warm-up holds one on the same steady scene.)
  NodeConfig config;
  config.maxEventsPerFrame = 1024;
  SensorSession session(3, config);
  PipelineSink sink(std::make_unique<EbmsPipeline>(EbmsPipelineConfig{}),
                    config.width, config.height, PipelineSinkConfig{});

  constexpr TimeUs kPeriod = 66'000;
  constexpr int kEventsPerWindow = 600;
  Rng rng(77);
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t seq = 0; seq < 96; ++seq) {
    // A steady blob plus salt noise: one cluster persists.
    const TimeUs tStart = static_cast<TimeUs>(seq) * kPeriod;
    EventPacket window(tStart, tStart + kPeriod);
    for (int i = 0; i < kEventsPerWindow; ++i) {
      const bool noise = i % 10 == 0;
      const int x = noise ? static_cast<int>(rng.uniformInt(0, 239))
                          : 40 + static_cast<int>(rng.uniformInt(0, 39));
      const int y = noise ? static_cast<int>(rng.uniformInt(0, 179))
                          : 70 + static_cast<int>(rng.uniformInt(0, 29));
      window.push(Event{static_cast<std::uint16_t>(x),
                        static_cast<std::uint16_t>(y), Polarity::kOn,
                        tStart + static_cast<TimeUs>(i) * 100});
    }
    std::vector<std::byte> bytes;
    encodeFrame(bytes, seq, 3, window);
    frames.push_back(std::move(bytes));
  }

  const auto step = [&](std::uint32_t seq) {
    const TimeUs now = static_cast<TimeUs>(seq + 1) * kPeriod;
    session.offerBytes(frames[seq], now);
    (void)session.drainInto(sink, now);
  };
  // Warm-up: every ring slot, the NN/EBMS state and the snapshot (one
  // idle-coast episode) reach their capacity.
  std::uint32_t seq = 0;
  for (; seq < 40; ++seq) {
    step(seq);
  }
  ASSERT_TRUE(sink.coastIdle());
  for (; seq < 48; ++seq) {
    step(seq);
  }
  ASSERT_FALSE(sink.lastTracks().empty());

  const std::uint64_t before = gAllocations.load();
  for (; seq < 72; ++seq) {
    step(seq);
  }
  ASSERT_TRUE(sink.coastIdle());
  ASSERT_TRUE(sink.coastIdle());
  for (; seq < 96; ++seq) {
    step(seq);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "session -> EBMS PipelineSink allocated in steady state";
  EXPECT_EQ(sink.counters().windowsTracked, 96U);
  EXPECT_EQ(sink.counters().resyncRestores, 2U);
  EXPECT_FALSE(sink.lastTracks().empty());
}

TEST(AllocationAuditTest, EbmsSnapshotSaveAllocatesNothingAsClustersGrow) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The same node path, on a scene whose cluster count rises between
  // idle-coast episodes: one blob through the first episode, then the
  // scene splits into three.  The second episode's snapshot save copies
  // a tracker holding more clusters than at the first save; the copy
  // must still reuse the snapshot's buffers.
  NodeConfig config;
  config.maxEventsPerFrame = 1024;
  SensorSession session(4, config);
  PipelineSink sink(std::make_unique<EbmsPipeline>(EbmsPipelineConfig{}),
                    config.width, config.height, PipelineSinkConfig{});

  constexpr TimeUs kPeriod = 66'000;
  constexpr int kEventsPerWindow = 600;
  struct Blob {
    int x0, y0;
  };
  const std::vector<Blob> one{{40, 70}};
  const std::vector<Blob> three{{40, 70}, {150, 20}, {160, 130}};
  Rng rng(78);
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t seq = 0; seq < 96; ++seq) {
    const std::vector<Blob>& blobs = seq < 40 ? one : three;
    const TimeUs tStart = static_cast<TimeUs>(seq) * kPeriod;
    EventPacket window(tStart, tStart + kPeriod);
    for (int i = 0; i < kEventsPerWindow; ++i) {
      const Blob& b = blobs[static_cast<std::size_t>(i) % blobs.size()];
      window.push(Event{
          static_cast<std::uint16_t>(b.x0 + rng.uniformInt(0, 29)),
          static_cast<std::uint16_t>(b.y0 + rng.uniformInt(0, 24)),
          Polarity::kOn, tStart + static_cast<TimeUs>(i) * 100});
    }
    std::vector<std::byte> bytes;
    encodeFrame(bytes, seq, 4, window);
    frames.push_back(std::move(bytes));
  }

  const auto step = [&](std::uint32_t seq) {
    const TimeUs now = static_cast<TimeUs>(seq + 1) * kPeriod;
    session.offerBytes(frames[seq], now);
    (void)session.drainInto(sink, now);
  };
  // Warm-up: the first coast episode's save holds one cluster; then the
  // live state (queue slots, tracks) grows to three clusters.
  std::uint32_t seq = 0;
  for (; seq < 40; ++seq) {
    step(seq);
  }
  ASSERT_EQ(sink.lastTracks().size(), 1U);
  ASSERT_TRUE(sink.coastIdle());
  for (; seq < 64; ++seq) {
    step(seq);
  }
  ASSERT_EQ(sink.lastTracks().size(), 3U);

  const std::uint64_t before = gAllocations.load();
  ASSERT_TRUE(sink.coastIdle());  // saves the three-cluster state
  for (; seq < 96; ++seq) {
    step(seq);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "EBMS snapshot save allocated as the cluster count grew";
  EXPECT_EQ(sink.counters().windowsTracked, 96U);
  EXPECT_EQ(sink.counters().resyncRestores, 2U);
  EXPECT_EQ(sink.lastTracks().size(), 3U);
}

TEST(AllocationAuditTest, PixelLatchReadIntoAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // PipelineSink's latch readout for frame-domain pipelines: one bitmap
  // and one output packet reused per window.
  PixelLatch latch(240, 180);
  EventPacket out;
  std::vector<EventPacket> windows;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    windows.push_back(denseTrafficWindow(seed));
  }
  for (const EventPacket& w : windows) {
    latch.readInto(w, out);  // warm-up: output capacity grows here
  }
  const std::uint64_t before = gAllocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    for (const EventPacket& w : windows) {
      latch.readInto(w, out);
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "PixelLatch::readInto allocated in steady state";
  EXPECT_GT(out.size(), 0U);
}

TEST(AllocationAuditTest, NnFilterFilterIntoAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  NnFilterConfig config;
  NnFilter filter(config);
  Rng rng(23);
  std::vector<EventPacket> windows;
  for (int w = 0; w < 4; ++w) {
    EventPacket p(w * 66'000, (w + 1) * 66'000);
    for (int i = 0; i < 800; ++i) {
      const int x = 40 + static_cast<int>(rng.uniformInt(0, 69));
      const int y = 60 + static_cast<int>(rng.uniformInt(0, 29));
      p.push(Event{static_cast<std::uint16_t>(x),
                   static_cast<std::uint16_t>(y), Polarity::kOn,
                   static_cast<TimeUs>(w * 66'000 + i * 80)});
    }
    windows.push_back(std::move(p));
  }
  EventPacket out;
  for (const EventPacket& p : windows) {
    filter.filterInto(p, out);  // warm-up: output capacity grows here
  }
  filter.reset();
  const std::uint64_t before = gAllocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    filter.reset();  // replaying the same windows keeps timestamps sane
    for (const EventPacket& p : windows) {
      filter.filterInto(p, out);
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "NnFilter::filterInto allocated in steady state";
}

TEST(AllocationAuditTest, MedianFilterApplyIntoAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  MedianFilter median(3);
  BinaryImage in(240, 180);
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    in.set(static_cast<int>(rng.uniformInt(0, 239)),
           static_cast<int>(rng.uniformInt(0, 179)), true);
  }
  BinaryImage out(240, 180);
  median.applyInto(in, out);  // warm-up
  const std::uint64_t before = gAllocations.load();
  for (int i = 0; i < 10; ++i) {
    median.applyInto(in, out);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U);
}

}  // namespace
}  // namespace ebbiot
