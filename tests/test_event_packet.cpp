#include "src/events/event_packet.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

Event makeEvent(std::uint16_t x, std::uint16_t y, TimeUs t,
                Polarity p = Polarity::kOn) {
  return Event{x, y, p, t};
}

TEST(EventPacketTest, WindowAndDuration) {
  const EventPacket p(1000, 5000);
  EXPECT_EQ(p.tStart(), 1000);
  EXPECT_EQ(p.tEnd(), 5000);
  EXPECT_EQ(p.duration(), 4000);
  EXPECT_TRUE(p.empty());
}

TEST(EventPacketTest, PushInsideWindow) {
  EventPacket p(0, 100);
  p.push(makeEvent(1, 2, 50));
  EXPECT_EQ(p.size(), 1U);
  EXPECT_EQ(p[0].x, 1);
  EXPECT_EQ(p[0].t, 50);
}

TEST(EventPacketTest, PushOutsideWindowThrows) {
  EventPacket p(0, 100);
  EXPECT_THROW(p.push(makeEvent(0, 0, 100)), LogicError);   // tEnd exclusive
  EXPECT_THROW(p.push(makeEvent(0, 0, -1)), LogicError);
}

TEST(EventPacketTest, ConstructorValidatesEvents) {
  std::vector<Event> bad{makeEvent(0, 0, 500)};
  EXPECT_THROW(EventPacket(0, 100, std::move(bad)), LogicError);
}

TEST(EventPacketTest, InvertedWindowThrows) {
  EXPECT_THROW(EventPacket(100, 0), LogicError);
}

TEST(EventPacketTest, SortByTimeIsStableCanonicalOrder) {
  EventPacket p(0, 100);
  p.push(makeEvent(5, 5, 30));
  p.push(makeEvent(1, 1, 10));
  p.push(makeEvent(2, 2, 10));
  EXPECT_FALSE(p.isTimeSorted());
  p.sortByTime();
  EXPECT_TRUE(p.isTimeSorted());
  EXPECT_EQ(p[0].t, 10);
  EXPECT_EQ(p[0].x, 1);  // tie broken by (y, x)
  EXPECT_EQ(p[1].x, 2);
  EXPECT_EQ(p[2].t, 30);
}

TEST(EventPacketTest, SliceReturnsHalfOpenRange) {
  EventPacket p(0, 100);
  for (TimeUs t : {5, 10, 20, 30, 40}) {
    p.push(makeEvent(0, 0, t));
  }
  const EventPacket s = p.slice(10, 30);
  EXPECT_EQ(s.size(), 2U);
  EXPECT_EQ(s[0].t, 10);
  EXPECT_EQ(s[1].t, 20);
  EXPECT_EQ(s.tStart(), 10);
  EXPECT_EQ(s.tEnd(), 30);
}

TEST(EventPacketTest, SliceOfUnsortedThrows) {
  EventPacket p(0, 100);
  p.push(makeEvent(0, 0, 50));
  p.push(makeEvent(0, 0, 10));
  EXPECT_THROW((void)p.slice(0, 100), LogicError);
}

TEST(EventPacketTest, FilterByRegionKeepsInsideEvents) {
  EventPacket p(0, 100);
  p.push(makeEvent(5, 5, 10));
  p.push(makeEvent(50, 50, 20));
  const EventPacket f = p.filterByRegion(BBox{0, 0, 10, 10});
  EXPECT_EQ(f.size(), 1U);
  EXPECT_EQ(f[0].x, 5);
}

TEST(EventPacketTest, CountOn) {
  EventPacket p(0, 100);
  p.push(makeEvent(0, 0, 1, Polarity::kOn));
  p.push(makeEvent(0, 0, 2, Polarity::kOff));
  p.push(makeEvent(0, 0, 3, Polarity::kOn));
  EXPECT_EQ(p.countOn(), 2U);
}

TEST(EventPacketTest, AppendChecksWindow) {
  EventPacket a(0, 100);
  EventPacket b(10, 50);
  b.push(makeEvent(1, 1, 20));
  a.append(b);
  EXPECT_EQ(a.size(), 1U);
  EventPacket wide(0, 200);
  EXPECT_THROW(a.append(wide), LogicError);
}

TEST(EventPacketTest, MergePreservesOrderAndWindow) {
  EventPacket a(0, 50);
  a.push(makeEvent(0, 0, 10));
  a.push(makeEvent(0, 0, 30));
  EventPacket b(20, 100);
  b.push(makeEvent(1, 1, 25));
  b.push(makeEvent(1, 1, 60));
  const EventPacket m = mergePackets(a, b);
  EXPECT_EQ(m.tStart(), 0);
  EXPECT_EQ(m.tEnd(), 100);
  ASSERT_EQ(m.size(), 4U);
  EXPECT_TRUE(m.isTimeSorted());
  EXPECT_EQ(m[1].t, 25);
}

TEST(EventPacketTest, AppendBufferGrowsGeometrically) {
  // A packet reused over rising window sizes (reset, then one bulk
  // append per window) must reallocate O(log n) times, not once per
  // larger window.
  EventPacket p;
  int reallocations = 0;
  const Event* data = nullptr;
  constexpr std::size_t kWindows = 1000;
  for (std::size_t n = 1; n <= kWindows; ++n) {
    p.reset(0, 1'000);
    const std::span<Event> buf = p.appendBuffer(n);
    for (Event& e : buf) {
      e.t = 5;
    }
    p.commitAppended(n);
    if (p.events().data() != data) {
      ++reallocations;
      data = p.events().data();
    }
  }
  EXPECT_EQ(p.size(), kWindows);
  EXPECT_LE(reallocations, 11);  // ceil(log2(1000)) + 1
}

TEST(EventPacketTest, TakeEventsMovesStorage) {
  EventPacket p(0, 100);
  p.push(makeEvent(3, 4, 10));
  std::vector<Event> v = std::move(p).takeEvents();
  ASSERT_EQ(v.size(), 1U);
  EXPECT_EQ(v[0].x, 3);
}

}  // namespace
}  // namespace ebbiot
