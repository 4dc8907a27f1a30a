// EventPacket: a time-bounded batch of AER events.
//
// The EBBIOT processor wakes up every tF and reads out the events latched
// since the previous interrupt (Figure 2).  An EventPacket models exactly
// that readout: the events plus the [tStart, tEnd) window they came from.
// Packets are also the unit of file I/O and of the event-domain filters.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/geometry.hpp"
#include "src/common/time.hpp"
#include "src/events/event.hpp"

namespace ebbiot {

class EventPacket {
 public:
  EventPacket() = default;

  /// Packet covering [tStart, tEnd).  Events may be appended afterwards;
  /// each append is checked against the window.
  EventPacket(TimeUs tStart, TimeUs tEnd);

  /// Wrap an existing event vector (must already lie within the window;
  /// verified).  Events need not be time-sorted.
  EventPacket(TimeUs tStart, TimeUs tEnd, std::vector<Event> events);

  [[nodiscard]] TimeUs tStart() const { return tStart_; }
  [[nodiscard]] TimeUs tEnd() const { return tEnd_; }
  [[nodiscard]] TimeUs duration() const { return tEnd_ - tStart_; }

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::span<const Event> events() const { return events_; }

  [[nodiscard]] auto begin() const { return events_.begin(); }
  [[nodiscard]] auto end() const { return events_.end(); }
  [[nodiscard]] const Event& operator[](std::size_t i) const;

  /// Append one event; throws LogicError if outside the packet window.
  void push(const Event& e);

  /// Bulk-append window for selector stages: extends the packet by
  /// `count` value-initialised events and returns the span over them.
  /// The caller overwrites a prefix (e.g. writing each surviving event
  /// unconditionally and bumping its cursor branch-free) and then calls
  /// commitAppended() to drop the unused tail.  No other mutation may
  /// run between the two calls.  Capacity grows geometrically, so a
  /// reused packet reallocates O(log n) times over rising window sizes.
  std::span<Event> appendBuffer(std::size_t count);

  /// Keep only the first `kept` events of the last appendBuffer() span;
  /// the per-event window check push() does runs here instead.
  void commitAppended(std::size_t kept);

  /// Drop all events and retarget the window to [tStart, tEnd), keeping
  /// the storage capacity — lets streaming stages reuse one packet per
  /// window without per-call allocation (see NnFilter::filterInto).
  void reset(TimeUs tStart, TimeUs tEnd);

  /// Append all events of another packet (windows must be compatible:
  /// other's window must lie within this packet's window).
  void append(const EventPacket& other);

  /// Sort events into canonical time order (stable w.r.t. EventTimeOrder).
  void sortByTime();

  /// True if events are non-decreasing in time.
  [[nodiscard]] bool isTimeSorted() const;

  /// Sub-packet with events in [t0, t1) (requires time-sorted packet).
  [[nodiscard]] EventPacket slice(TimeUs t0, TimeUs t1) const;

  /// Events whose coordinates fall inside the given box.
  [[nodiscard]] EventPacket filterByRegion(const BBox& region) const;

  /// Count of ON-polarity events.
  [[nodiscard]] std::size_t countOn() const;

  /// Release the underlying storage (moves out).
  std::vector<Event> takeEvents() &&;

 private:
  TimeUs tStart_ = 0;
  TimeUs tEnd_ = 0;
  std::vector<Event> events_;
  std::size_t appendBase_ = 0;  ///< start of the open appendBuffer() span
};

/// Merge time-sorted packets into one time-sorted packet spanning the
/// union of their windows.  Used to combine signal and noise streams.
[[nodiscard]] EventPacket mergePackets(const EventPacket& a,
                                       const EventPacket& b);

}  // namespace ebbiot
