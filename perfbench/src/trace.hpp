// In-memory spans recorded by the benchmark's own decorators around the
// calls into each layer of the system under test.
//
// A Span is an RAII scope: it records name (layer + variant tag), start,
// end, its parent (the span open on the same thread when it began) and
// the (sensor, seq) window it serves.  Self time is the span's duration
// minus its children's; allocations made on the thread while the span is
// innermost are its own.  Aggregates per (layer, variant) are kept per
// thread while running and merged at the end; raw spans (the first 2^17
// over all threads) are written to a file when the benchmark exits.
//
// Tracing is off unless enable() was called: a disabled Span costs one
// relaxed load, so the untraced runs use the same harness code.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Instrumented layer boundaries.  kObserver (track capture) and kSource
/// (the sweep's replay draw) are the benchmark's own code, not layers of
/// the system.
enum class Layer : std::uint8_t {
  kSessionOffer,    ///< NodeSupervisor::offerBytes
  kSupervisorPump,  ///< NodeSupervisor::pump
  kSink,            ///< PipelineSink::onWindow
  kFrontEnd,        ///< frame front end (EBBI -> median -> proposer)
  kEbbiBuild,       ///< EbbiBuilder::buildInto
  kMedian,          ///< MedianFilter::applyInto
  kRpn,             ///< HistogramRpn::propose
  kCca,             ///< CcaLabeler::propose
  kRegionFilter,    ///< RegionFilter::apply
  kOverlap,         ///< OverlapTracker::update
  kKalman,          ///< KalmanTracker::update
  kHybrid,          ///< HybridTracker::update
  kNnFilter,        ///< NnFilter::filterInto
  kEbms,            ///< EbmsTracker::processPacket + visibleTracksInto
  kObserver,        ///< benchmark track capture (not a system layer)
  kSource,          ///< benchmark replay draw (not a system layer)
  kCount,
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Metric-key prefix of a layer ("node.session", "ebbi.build", ...).
[[nodiscard]] const char* layerKey(Layer layer);

/// Counts recorded where the work happens (ratios are formed from them).
enum class Counter : std::uint8_t {
  kOfferBytes,       ///< bytes handed to offerBytes
  kPumpWindows,      ///< windows delivered by pump()
  kRegionProposals,  ///< proposals entering the region filter
  kRegionAccepted,   ///< proposals it accepted
  kNnEventsIn,       ///< events entering the NN filter
  kNnEventsPassed,   ///< events it passed
  kEbmsClusters,     ///< active EBMS clusters after each window
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

inline constexpr std::uint8_t kNoVariant = 0xFF;
inline constexpr std::size_t kMaxVariants = 16;

/// Turn recording on (before any traced thread starts).
void enable();
[[nodiscard]] bool enabled();

/// Clear every aggregate and raw span (between untraced warm-up and the
/// traced rounds; no traced thread may be running).
void reset();

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t nowNs();

class Span {
 public:
  explicit Span(Layer layer, std::uint8_t variant = kNoVariant,
                std::uint16_t sensor = 0, std::uint32_t seq = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Add `n` to a counter (no-op while tracing is off).
void count(Counter counter, std::uint64_t n);
/// Add one window's closed-form ops to a layer's tally (no-op while off).
void ops(Layer layer, std::uint8_t variant, std::uint64_t n);

/// Merged aggregates over every thread that recorded spans.
struct Totals {
  struct Cell {
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0;  ///< summed span durations
    std::int64_t selfNs = 0;   ///< summed durations minus children
    std::uint64_t selfAllocs = 0;
    std::uint64_t ops = 0;     ///< closed-form ops reported by the stage
  };
  std::array<std::array<Cell, kMaxVariants + 1>, kLayerCount> cells{};
  std::array<std::uint64_t, kCounterCount> counters{};

  /// Cell summed over variants (index kMaxVariants holds untagged spans).
  [[nodiscard]] Cell layer(Layer l) const;
  [[nodiscard]] const Cell& at(Layer l, std::uint8_t variant) const {
    return cells[static_cast<std::size_t>(l)]
                [variant == kNoVariant ? kMaxVariants : variant];
  }
  [[nodiscard]] std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};
[[nodiscard]] Totals totals();

/// Write the raw spans as TSV (thread, id, parent, layer, variant,
/// sensor, seq, start_ns, end_ns, self_allocs); returns spans written.
std::size_t writeSpans(const std::string& path,
                       const std::vector<std::string>& variantNames);

}  // namespace perfbench::trace
