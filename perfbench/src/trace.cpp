#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "alloc_hook.hpp"

namespace perfbench::trace {

namespace {

constexpr std::size_t kMaxDepth = 32;
/// Raw spans kept for the span file, over all threads (~10 MB written);
/// aggregates keep counting past it.  Per-thread buffers grow in blocks.
constexpr std::size_t kRawSpanBudget = 1 << 17;
constexpr std::size_t kRawSpanBlock = 1 << 13;

struct Frame {
  Layer layer;
  std::uint8_t variant;
  std::int32_t record;  ///< index into spans, or -1 past the cap
  std::int64_t startNs;
  std::uint64_t allocsAtOpen;
  std::int64_t childNs;
  std::uint64_t childAllocs;
};

struct SpanRecord {
  std::int64_t startNs;
  std::int64_t endNs;
  std::int32_t parent;
  std::uint32_t seq;
  std::uint32_t selfAllocs;
  std::uint16_t sensor;
  Layer layer;
  std::uint8_t variant;
};

struct ThreadState {
  int index = 0;
  std::size_t depth = 0;
  std::array<Frame, kMaxDepth> stack{};
  Totals totals;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> gEnabled{false};
std::atomic<std::size_t> gRawSpans{0};
std::mutex gMutex;
std::vector<std::unique_ptr<ThreadState>> gStates;  // guarded by gMutex
thread_local ThreadState* tlState = nullptr;

ThreadState& state() {
  if (tlState == nullptr) {
    auto fresh = std::make_unique<ThreadState>();
    const std::lock_guard<std::mutex> lock(gMutex);
    fresh->index = static_cast<int>(gStates.size());
    tlState = fresh.get();
    gStates.push_back(std::move(fresh));
  }
  return *tlState;
}

Totals::Cell& cellOf(Totals& t, Layer layer, std::uint8_t variant) {
  return t.cells[static_cast<std::size_t>(layer)]
                [variant == kNoVariant ? kMaxVariants : variant];
}

}  // namespace

const char* layerKey(Layer layer) {
  switch (layer) {
    case Layer::kSessionOffer: return "node.session";
    case Layer::kSupervisorPump: return "node.supervisor";
    case Layer::kSink: return "node.sink";
    case Layer::kFrontEnd: return "core.front_end";
    case Layer::kEbbiBuild: return "ebbi.build";
    case Layer::kMedian: return "filters.median";
    case Layer::kRpn: return "detect.rpn";
    case Layer::kCca: return "detect.cca";
    case Layer::kRegionFilter: return "detect.region_filter";
    case Layer::kOverlap: return "trackers.overlap";
    case Layer::kKalman: return "trackers.kalman";
    case Layer::kHybrid: return "trackers.hybrid";
    case Layer::kNnFilter: return "filters.nn";
    case Layer::kEbms: return "trackers.ebms";
    case Layer::kObserver: return "bench.observer";
    case Layer::kSource: return "bench.source";
    case Layer::kCount: break;
  }
  return "unknown";
}

void enable() { gEnabled.store(true, std::memory_order_relaxed); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

void reset() {
  const std::lock_guard<std::mutex> lock(gMutex);
  for (const auto& s : gStates) {
    s->totals = Totals{};
    s->spans.clear();
    s->depth = 0;
  }
  gRawSpans.store(0, std::memory_order_relaxed);
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(Layer layer, std::uint8_t variant, std::uint16_t sensor,
           std::uint32_t seq) {
  if (!enabled()) {
    return;
  }
  ThreadState& s = state();
  if (s.depth >= kMaxDepth) {
    return;
  }
  active_ = true;
  std::int32_t record = -1;
  const std::int32_t parent =
      s.depth > 0 ? s.stack[s.depth - 1].record : -1;
  if (gRawSpans.load(std::memory_order_relaxed) < kRawSpanBudget) {
    gRawSpans.fetch_add(1, std::memory_order_relaxed);
    if (s.spans.size() == s.spans.capacity()) {
      // Before the frame opens: the block allocation is the parent's.
      s.spans.reserve(s.spans.size() + kRawSpanBlock);
    }
    record = static_cast<std::int32_t>(s.spans.size());
    s.spans.push_back(SpanRecord{0, 0, parent, seq, 0, sensor, layer,
                                 variant});
  }
  Frame& f = s.stack[s.depth++];
  f.layer = layer;
  f.variant = variant;
  f.record = record;
  f.childNs = 0;
  f.childAllocs = 0;
  f.allocsAtOpen = alloc::threadCount();
  f.startNs = nowNs();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const std::int64_t end = nowNs();
  ThreadState& s = *tlState;
  const Frame& f = s.stack[--s.depth];
  const std::int64_t dur = end - f.startNs;
  const std::uint64_t allocs = alloc::threadCount() - f.allocsAtOpen;
  const std::int64_t self = dur - f.childNs;
  Totals::Cell& cell = cellOf(s.totals, f.layer, f.variant);
  ++cell.calls;
  cell.totalNs += dur;
  cell.selfNs += self;
  cell.selfAllocs += allocs - f.childAllocs;
  if (s.depth > 0) {
    Frame& parent = s.stack[s.depth - 1];
    parent.childNs += dur;
    parent.childAllocs += allocs;
  }
  if (f.record >= 0) {
    SpanRecord& r = s.spans[static_cast<std::size_t>(f.record)];
    r.startNs = f.startNs;
    r.endNs = end;
    r.selfAllocs = static_cast<std::uint32_t>(allocs - f.childAllocs);
  }
}

void count(Counter counter, std::uint64_t n) {
  if (enabled()) {
    state().totals.counters[static_cast<std::size_t>(counter)] += n;
  }
}

void ops(Layer layer, std::uint8_t variant, std::uint64_t n) {
  if (enabled()) {
    cellOf(state().totals, layer, variant).ops += n;
  }
}

Totals::Cell Totals::layer(Layer l) const {
  Cell sum;
  for (const Cell& c : cells[static_cast<std::size_t>(l)]) {
    sum.calls += c.calls;
    sum.totalNs += c.totalNs;
    sum.selfNs += c.selfNs;
    sum.selfAllocs += c.selfAllocs;
    sum.ops += c.ops;
  }
  return sum;
}

Totals totals() {
  Totals out;
  const std::lock_guard<std::mutex> lock(gMutex);
  for (const auto& s : gStates) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      for (std::size_t v = 0; v <= kMaxVariants; ++v) {
        const Totals::Cell& c = s->totals.cells[l][v];
        Totals::Cell& o = out.cells[l][v];
        o.calls += c.calls;
        o.totalNs += c.totalNs;
        o.selfNs += c.selfNs;
        o.selfAllocs += c.selfAllocs;
        o.ops += c.ops;
      }
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      out.counters[c] += s->totals.counters[c];
    }
  }
  return out;
}

std::size_t writeSpans(const std::string& path,
                       const std::vector<std::string>& variantNames) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return 0;
  }
  std::fprintf(f,
               "thread\tid\tparent\tname\tvariant\tsensor\tseq\tstart_ns\t"
               "end_ns\tself_allocs\n");
  std::size_t written = 0;
  const std::lock_guard<std::mutex> lock(gMutex);
  for (const auto& s : gStates) {
    for (std::size_t i = 0; i < s->spans.size(); ++i) {
      const SpanRecord& r = s->spans[i];
      const char* variant =
          r.variant < variantNames.size() ? variantNames[r.variant].c_str()
                                          : "-";
      std::fprintf(f, "%d\t%zu\t%d\t%s\t%s\t%u\t%u\t%lld\t%lld\t%u\n",
                   s->index, i, r.parent, layerKey(r.layer), variant,
                   static_cast<unsigned>(r.sensor), r.seq,
                   static_cast<long long>(r.startNs),
                   static_cast<long long>(r.endNs), r.selfAllocs);
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

}  // namespace perfbench::trace
