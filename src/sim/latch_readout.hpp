// Latch ("sensor as memory") readout, Section II-A: while the processor
// sleeps, a pixel that has fired is not reset, so at most one event per
// pixel survives per readout window.  The readout keeps the *first* event
// of each pixel in the packet and drops the rest — applying it to a
// stream-mode packet yields exactly what the duty-cycled EBBIOT processor
// would read.
//
// PixelLatch is the one implementation: a W×H-bit "fired" bitmap (5.4 KB
// at 240×180) cleared per window, filling a caller-owned packet
// branch-free.  Streaming consumers (PipelineSink) keep one PixelLatch
// and one output packet per sensor, so the steady state allocates
// nothing; latchReadout() is the allocating convenience wrapper.
#pragma once

#include <cstdint>
#include <vector>

#include "src/events/event_packet.hpp"

namespace ebbiot {

class PixelLatch {
 public:
  /// Latch for a width x height sensor (both > 0).
  PixelLatch(int width, int height);

  /// Replace `out` with the latch readout of `window`: the same [tStart,
  /// tEnd) window and the first event of every pixel, in packet order.
  /// `out` must not alias `window`; it keeps its capacity across calls.
  void readInto(const EventPacket& window, EventPacket& out);

 private:
  int width_;
  int height_;
  std::vector<std::uint64_t> fired_;  ///< one bit per pixel, row-major
};

/// Latch readout of a time-sorted packet into a fresh packet.
[[nodiscard]] EventPacket latchReadout(const EventPacket& packet, int width,
                                       int height);

}  // namespace ebbiot
