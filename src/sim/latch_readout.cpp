#include "src/sim/latch_readout.hpp"

#include <algorithm>
#include <span>

#include "src/common/error.hpp"

namespace ebbiot {

PixelLatch::PixelLatch(int width, int height)
    : width_(width), height_(height) {
  EBBIOT_ASSERT(width > 0 && height > 0);
  const std::size_t pixels =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  fired_.resize((pixels + 63) / 64, 0);
}

void PixelLatch::readInto(const EventPacket& window, EventPacket& out) {
  EBBIOT_ASSERT(&window != &out);
  std::fill(fired_.begin(), fired_.end(), std::uint64_t{0});
  out.reset(window.tStart(), window.tEnd());
  // Every event is written to the next output slot; the cursor only
  // advances when the event's pixel had not fired yet this window.
  const std::span<Event> dst = out.appendBuffer(window.size());
  std::size_t kept = 0;
  for (const Event& e : window) {
    EBBIOT_ASSERT(e.x < width_ && e.y < height_);
    const std::size_t pixel = static_cast<std::size_t>(e.y) * width_ + e.x;
    std::uint64_t& word = fired_[pixel / 64];
    const std::uint64_t bit = std::uint64_t{1} << (pixel % 64);
    dst[kept] = e;
    kept += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }
  out.commitAppended(kept);
}

EventPacket latchReadout(const EventPacket& packet, int width, int height) {
  EBBIOT_ASSERT(packet.isTimeSorted());
  PixelLatch latch(width, height);
  EventPacket out;
  latch.readInto(packet, out);
  return out;
}

}  // namespace ebbiot
