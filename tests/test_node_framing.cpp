// Wire-format codec, CRC32 kernel, frame parser (reassembly, in-place
// validation, resync) and timestamp unwrapper of the node ingest layer.
#include "src/node/wire_format.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/node/node_config.hpp"
#include "src/node/sensor_session.hpp"

namespace ebbiot {
namespace {

/// The textbook bytewise table CRC32 (reflected 0xEDB88320), kept here
/// as the oracle for the production kernel.
std::uint32_t crc32Bytewise(std::span<const std::byte> bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::byte b : bytes) {
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

/// Overwrite a little-endian u32 field of an encoded frame.
void setLe32(std::vector<std::byte>& bytes, std::size_t offset,
             std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
  }
}

NodeConfig testConfig() {
  NodeConfig config;
  config.width = 64;
  config.height = 48;
  config.maxEventsPerFrame = 64;
  return config;
}

/// Deterministic window: 5 events, seq-dependent content.
EventPacket makeWindow(std::uint32_t i, TimeUs duration = 10'000) {
  const TimeUs tStart = static_cast<TimeUs>(i) * duration;
  EventPacket p(tStart, tStart + duration);
  for (std::uint32_t j = 0; j < 5; ++j) {
    Event e;
    e.x = static_cast<std::uint16_t>((i + 7 * j) % 64);
    e.y = static_cast<std::uint16_t>((3 * i + j) % 48);
    e.p = (i + j) % 2 == 0 ? Polarity::kOn : Polarity::kOff;
    e.t = tStart + static_cast<TimeUs>(j) * 100;
    p.push(e);
  }
  return p;
}

/// Decode a frame's records view with time origin 0, so Event::t holds
/// each event's dt from the window start.
std::vector<Event> decodeRelative(const DecodedFrame& frame) {
  std::vector<Event> events(frame.eventCount());
  decodeRecords(frame.records, 0, events);
  return events;
}

std::vector<std::byte> encodeOne(std::uint32_t seq, std::uint16_t sensor,
                                 const EventPacket& window) {
  std::vector<std::byte> out;
  encodeFrame(out, seq, sensor, window);
  return out;
}

TEST(WireFormatTest, FrameSizeIsClosedForm) {
  EXPECT_EQ(frameSizeBytes(0), 28U);
  EXPECT_EQ(frameSizeBytes(5), 28U + 45U);
  const EventPacket w = makeWindow(3);
  EXPECT_EQ(encodeOne(3, 7, w).size(), frameSizeBytes(w.size()));
}

TEST(WireFormatTest, RoundTripPreservesEverything) {
  const EventPacket w = makeWindow(4);
  const std::vector<std::byte> bytes = encodeOne(4, 7, w);

  FrameParser parser(testConfig());
  parser.offer(bytes);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 4U);
  EXPECT_EQ(frame.sensorId, 7U);
  EXPECT_EQ(frame.windowStart32, static_cast<std::uint32_t>(w.tStart()));
  EXPECT_EQ(frame.durationUs, static_cast<std::uint32_t>(w.duration()));
  ASSERT_EQ(frame.eventCount(), w.size());
  // The records view points at the frame's event bytes in place.
  EXPECT_EQ(frame.records.size(), w.size() * kFrameEventSize);
  const std::vector<Event> relative = decodeRelative(frame);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(relative[i].x, w[i].x);
    EXPECT_EQ(relative[i].y, w[i].y);
    EXPECT_EQ(relative[i].p, w[i].p);
    // Decoded relative to 0, t carries the delta from the window start.
    EXPECT_EQ(relative[i].t, w[i].t - w.tStart());
  }
  // Decoding with the window start as origin restores absolute time.
  std::vector<Event> absolute(frame.eventCount());
  decodeRecords(frame.records, w.tStart(), absolute);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(absolute[i], w[i]);
  }
  EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  EXPECT_EQ(parser.counters().framesDecoded, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 0U);
  EXPECT_EQ(parser.counters().resyncs, 0U);
}

TEST(WireFormatTest, EmptyWindowRoundTrips) {
  const EventPacket w(5'000, 15'000);
  const std::vector<std::byte> bytes = encodeOne(9, 1, w);
  EXPECT_EQ(bytes.size(), frameSizeBytes(0));

  FrameParser parser(testConfig());
  parser.offer(bytes);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 9U);
  EXPECT_EQ(frame.eventCount(), 0U);
  EXPECT_TRUE(frame.records.empty());
  EXPECT_EQ(frame.windowStart32, 5'000U);
  EXPECT_EQ(frame.durationUs, 10'000U);
}

TEST(WireFormatTest, ByteAtATimeReassembly) {
  const std::vector<std::byte> bytes = encodeOne(2, 7, makeWindow(2));
  FrameParser parser(testConfig());
  DecodedFrame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.offer({&bytes[i], 1});
    ASSERT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  }
  parser.offer({&bytes.back(), 1});
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 2U);
  // The records reassembled one byte at a time decode to the window.
  const EventPacket w = makeWindow(2);
  const std::vector<Event> relative = decodeRelative(frame);
  ASSERT_EQ(relative.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(relative[i].x, w[i].x);
    EXPECT_EQ(relative[i].y, w[i].y);
    EXPECT_EQ(relative[i].p, w[i].p);
    EXPECT_EQ(relative[i].t, w[i].t - w.tStart());
  }
  EXPECT_EQ(parser.counters().framesDecoded, 1U);
  EXPECT_EQ(parser.counters().resyncs, 0U);
}

TEST(WireFormatTest, CrcCorruptionResyncsToNextFrame) {
  std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  const std::vector<std::byte> f1 = encodeOne(1, 7, makeWindow(1));
  f0[kFrameWindowStartOffset] ^= std::byte{1};  // CRC now mismatches

  FrameParser parser(testConfig());
  parser.offer(f0);
  parser.offer(f1);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 1U);
  EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  EXPECT_EQ(parser.counters().framesDecoded, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 1U);
  EXPECT_EQ(parser.counters().resyncs, 1U);
  // The whole corrupted frame was scanned past, byte by byte.
  EXPECT_EQ(parser.counters().bytesSkipped, f0.size());
}

TEST(WireFormatTest, GarbagePrefixResyncs) {
  const std::vector<std::byte> garbage(37, std::byte{0xAB});
  const std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  FrameParser parser(testConfig());
  parser.offer(garbage);
  parser.offer(f0);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 0U);
  EXPECT_EQ(parser.counters().resyncs, 1U);
  EXPECT_EQ(parser.counters().bytesSkipped, garbage.size());
  // Garbage never presented a plausible header, so nothing was counted
  // as a corrupted *frame*.
  EXPECT_EQ(parser.counters().framesCorrupted, 0U);
}

TEST(WireFormatTest, ImplausibleEventCountRejectedWithoutAllocation) {
  // A CRC-valid frame declaring more events than the config admits must
  // be treated as corruption (and never allocated for), not trusted.
  std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  f0[kFrameEventCountOffset + 3] = std::byte{0x7F};
  refreshFrameCrc(f0);
  const std::vector<std::byte> f1 = encodeOne(1, 7, makeWindow(1));

  FrameParser parser(testConfig());
  parser.offer(f0);
  parser.offer(f1);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 1U);
  EXPECT_EQ(parser.counters().resyncs, 1U);
}

TEST(WireFormatTest, CrcValidButSemanticallyImpossibleEventsRejected) {
  // Out-of-bounds coordinate with a refreshed CRC: a buggy or hostile
  // sender the checksum alone cannot catch.
  std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  f0[kFrameHeaderSize] = std::byte{0xFF};  // event 0 x -> 255 >= width 64
  refreshFrameCrc(f0);
  const std::vector<std::byte> f1 = encodeOne(1, 7, makeWindow(1));

  FrameParser parser(testConfig());
  parser.offer(f0);
  parser.offer(f1);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 1U);

  // Same for a polarity byte outside {1, -1}.
  std::vector<std::byte> f2 = encodeOne(2, 7, makeWindow(2));
  f2[kFrameHeaderSize + 4] = std::byte{3};
  refreshFrameCrc(f2);
  const std::vector<std::byte> f3 = encodeOne(3, 7, makeWindow(3));
  parser.offer(f2);
  parser.offer(f3);
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 3U);
  EXPECT_EQ(parser.counters().framesCorrupted, 2U);

  // A y coordinate outside the sensor, and in the *last* record, so the
  // whole frame must be scanned to find it.
  std::vector<std::byte> f4 = encodeOne(4, 7, makeWindow(4));
  const std::size_t lastRecord = kFrameHeaderSize + 4 * kFrameEventSize;
  f4[lastRecord + 2] = std::byte{48};  // y -> 48 >= height 48
  refreshFrameCrc(f4);
  // A dt equal to the duration: the event lies past the window end.
  std::vector<std::byte> f5 = encodeOne(5, 7, makeWindow(5));
  setLe32(f5, kFrameHeaderSize + 5, 10'000);  // event 0 dt == duration
  refreshFrameCrc(f5);
  const std::vector<std::byte> f6 = encodeOne(6, 7, makeWindow(6));
  parser.offer(f4);
  parser.offer(f5);
  parser.offer(f6);
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 6U);
  EXPECT_EQ(parser.counters().framesCorrupted, 4U);
  EXPECT_EQ(parser.counters().framesDecoded, 3U);
}

TEST(WireFormatTest, ImpossibleEventsAreCorruptBeforeTheSessionSeesThem) {
  // The parser condemns a CRC-valid frame with an impossible event
  // before SensorSession applies any discipline: it counts in
  // framesCorrupted, never in framesDecoded/framesAccepted, and its
  // window never reaches the queue.
  std::vector<std::byte> bad = encodeOne(1, 7, makeWindow(1));
  setLe32(bad, kFrameHeaderSize + kFrameEventSize + 5, 20'000);  // dt
  refreshFrameCrc(bad);
  std::vector<std::byte> stream = encodeOne(0, 7, makeWindow(0));
  stream.insert(stream.end(), bad.begin(), bad.end());
  const std::vector<std::byte> f2 = encodeOne(2, 7, makeWindow(2));
  stream.insert(stream.end(), f2.begin(), f2.end());

  SensorSession session(7, testConfig());
  session.offerBytes(stream, 1'000);
  struct SeqSink final : WindowSink {
    std::vector<std::uint32_t> seqs;
    void onWindow(const EventPacket& /*window*/, std::uint32_t seq,
                  TimeUs /*ingestTime*/) override {
      seqs.push_back(seq);
    }
  } sink;
  EXPECT_EQ(session.drainInto(sink, 2'000), 2U);
  EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{0, 2}));
  const SessionCounters c = session.counters();
  EXPECT_EQ(c.framesCorrupted, 1U);
  EXPECT_EQ(c.framesDecoded, 2U);
  EXPECT_EQ(c.framesAccepted, 2U);
  EXPECT_EQ(c.resyncs, 1U);
  // The condemned frame is a lost seq to the session, not a delivery.
  EXPECT_EQ(c.seqGaps, 1U);
  EXPECT_EQ(c.framesLostToGaps, 1U);
}

TEST(WireFormatTest, ReassemblyBufferIsBounded) {
  NodeConfig config = testConfig();
  config.maxBufferedBytes = config.maxFrameBytes();  // tightest legal cap
  FrameParser parser(config);
  // Offer three frames' worth of junk at once: everything beyond the cap
  // must be dropped and counted, not buffered.
  const std::vector<std::byte> junk(3 * config.maxFrameBytes(),
                                    std::byte{0x00});
  parser.offer(junk);
  EXPECT_EQ(parser.counters().bytesOffered, junk.size());
  EXPECT_EQ(parser.counters().bytesDroppedOverflow,
            junk.size() - config.maxFrameBytes());
  EXPECT_EQ(parser.buffered(), config.maxFrameBytes());
}

TEST(WireFormatTest, SeqAndWindowStartFieldAccessors) {
  std::vector<std::byte> f0 = encodeOne(41, 7, makeWindow(41));
  EXPECT_EQ(frameSeq(f0), 41U);
  EXPECT_EQ(frameWindowStart32(f0), 410'000U);
  setFrameSeq(f0, 99);
  setFrameWindowStart32(f0, 123'456);
  refreshFrameCrc(f0);
  EXPECT_EQ(frameSeq(f0), 99U);
  EXPECT_EQ(frameWindowStart32(f0), 123'456U);

  FrameParser parser(testConfig());
  parser.offer(f0);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 99U);
  EXPECT_EQ(frame.windowStart32, 123'456U);
}

TEST(WireFormatTest, Crc32MatchesKnownVector) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  const char* digits = "123456789";
  std::vector<std::byte> bytes;
  for (const char* p = digits; *p != '\0'; ++p) {
    bytes.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(crc32(bytes), 0xCBF43926U);
  EXPECT_EQ(crc32Bytewise(bytes), 0xCBF43926U);
}

TEST(WireFormatTest, Crc32MatchesBytewiseOracleAtEveryAlignment) {
  // Lengths 0-64 starting at every offset 0-7 of one buffer: covers the
  // word loop, the byte tail and unaligned word loads.
  Rng rng(0xC3C3);
  std::vector<std::byte> buf(64 + 8);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.uniformInt(0, 255));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::byte> bytes(buf.data() + offset, len);
      ASSERT_EQ(crc32(bytes), crc32Bytewise(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(WireFormatTest, Crc32MatchesBytewiseOracleOnRandomBuffers) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::byte> bytes(
        static_cast<std::size_t>(rng.uniformInt(0, 64 * 1024)));
    for (std::byte& b : bytes) {
      b = static_cast<std::byte>(rng.uniformInt(0, 255));
    }
    ASSERT_EQ(crc32(bytes), crc32Bytewise(bytes))
        << "trial " << trial << " length " << bytes.size();
  }
}

TEST(WireFormatTest, ParserRejectsInvalidConfig) {
  NodeConfig config = testConfig();
  config.maxEventsPerFrame = 0;
  EXPECT_THROW(FrameParser{config}, ConfigError);
}

TEST(TimestampUnwrapperTest, ForwardStepsAccumulate) {
  TimestampUnwrapper u;
  EXPECT_EQ(u.unwrap(100).t, 100);
  const auto r = u.unwrap(2'000'000'000U);
  EXPECT_EQ(r.t, 2'000'000'000);
  EXPECT_FALSE(r.wrapped);
  EXPECT_FALSE(r.regressed);
}

TEST(TimestampUnwrapperTest, WrapAdvancesEpoch) {
  TimestampUnwrapper u;
  (void)u.unwrap(2'000'000'000U);
  (void)u.unwrap(4'000'000'000U);
  const auto r = u.unwrap(294'967'295U);  // numerically smaller: wrapped
  EXPECT_TRUE(r.wrapped);
  EXPECT_FALSE(r.regressed);
  EXPECT_EQ(r.t, (TimeUs{1} << 32) + 294'967'295);
  // A second lap keeps accumulating.
  (void)u.unwrap(2'400'000'000U);
  const auto r2 = u.unwrap(100U);
  EXPECT_TRUE(r2.wrapped);
  EXPECT_EQ(r2.t, (TimeUs{2} << 32) + 100);
}

TEST(TimestampUnwrapperTest, BackwardStepIsRegression) {
  TimestampUnwrapper u;
  (void)u.unwrap(2'000'000'000U);
  const auto r = u.unwrap(1'999'000'000U);
  EXPECT_TRUE(r.regressed);
  EXPECT_FALSE(r.wrapped);
  EXPECT_EQ(r.t, 1'999'000'000);  // informational position
  // The stream position did not move: the next forward sample unwraps
  // against the *accepted* history.
  EXPECT_EQ(u.unwrap(2'000'000'100U).t, 2'000'000'100);
}

TEST(TimestampUnwrapperTest, ResetForgetsEpoch) {
  TimestampUnwrapper u;
  (void)u.unwrap(2'000'000'000U);
  (void)u.unwrap(4'000'000'000U);
  (void)u.unwrap(294'967'295U);  // epoch 1
  u.reset();
  const auto r = u.unwrap(50U);
  EXPECT_FALSE(r.wrapped);
  EXPECT_FALSE(r.regressed);
  EXPECT_EQ(r.t, 50);
}

}  // namespace
}  // namespace ebbiot
