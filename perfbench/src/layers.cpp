#include <chrono>
#include <thread>

#include "src/core/variant_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using trace::Counter;
using trace::Layer;
using Cell = trace::Totals::Cell;

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

void waitUntilNs(std::int64_t deadlineNs) {
  const std::int64_t remaining = deadlineNs - trace::nowNs();
  if (remaining > 150'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(remaining - 100'000));
  }
  while (trace::nowNs() < deadlineNs) {
    cpuRelax();
  }
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double selfUs(const Cell& c) {
  return ratio(static_cast<double>(c.selfNs) / 1e3,
               static_cast<double>(c.calls));
}
double allocsPerCall(const Cell& c) {
  return ratio(static_cast<double>(c.selfAllocs),
               static_cast<double>(c.calls));
}
double opsPerCall(const Cell& c) {
  return ratio(static_cast<double>(c.ops), static_cast<double>(c.calls));
}

/// Stages whose spans are the top of a pipeline's window (no stage span
/// encloses them), and the tracker stage that ends each window.
constexpr Layer kTopStages[] = {Layer::kFrontEnd, Layer::kRegionFilter,
                                Layer::kOverlap,  Layer::kKalman,
                                Layer::kHybrid,   Layer::kNnFilter,
                                Layer::kEbms};
constexpr Layer kWindowEnd[] = {Layer::kOverlap, Layer::kKalman,
                                Layer::kHybrid, Layer::kEbms};

}  // namespace

void addLayerMetrics(const trace::Totals& totals, const LayerExtras& extras,
                     const std::vector<std::string>& variantTags,
                     MetricSet& out) {
  const auto layer = [&](Layer l) { return totals.layer(l); };
  const auto counter = [&](Counter c) {
    return static_cast<double>(totals.counter(c));
  };

  const Cell offer = layer(Layer::kSessionOffer);
  out.add("node.session.offer_us", selfUs(offer), "us");
  out.add("node.session.busy_frac", extras.sessionBusyFrac, "ratio");
  out.add("node.session.bytes_per_s", extras.sessionBytesPerS, "B/s");
  out.add("node.session.resyncs", extras.resyncs, "count");
  out.add("node.session.frames_corrupted", extras.framesCorrupted, "count");
  out.add("node.session.allocs_per_call", allocsPerCall(offer), "count");

  const Cell pump = layer(Layer::kSupervisorPump);
  out.add("node.supervisor.pump_self_us", selfUs(pump), "us");
  out.add("node.supervisor.windows_per_pump",
          ratio(counter(Counter::kPumpWindows),
                static_cast<double>(pump.calls)),
          "count");
  out.add("node.supervisor.allocs_per_call", allocsPerCall(pump), "count");

  out.add("node.queue.wait_us_p50", extras.queueWaitP50Us, "us");
  out.add("node.queue.wait_us_p99", extras.queueWaitP99Us, "us");
  out.add("node.queue.backlog_max", extras.backlogMax, "count");

  const Cell sink = layer(Layer::kSink);
  out.add("node.sink.self_us", selfUs(sink), "us");
  out.add("node.sink.windows_coasted", extras.windowsCoasted, "count");
  out.add("node.sink.resync_restores", extras.resyncRestores, "count");
  out.add("node.sink.allocs_per_call", allocsPerCall(sink), "count");

  // The runner's time on its threads outside every pipeline stage and
  // outside the benchmark's own draw and track capture, idle included:
  // latch readout, frame statistics, ground truth, matching and waiting
  // on the stage graph.  Its allocations are those made during
  // runRecording outside every span.
  double stageNs = 0;
  for (const Layer l : kTopStages) {
    stageNs += static_cast<double>(layer(l).totalNs);
  }
  double benchNs = 0;
  for (const Layer l : {Layer::kObserver, Layer::kSource}) {
    benchNs += static_cast<double>(layer(l).totalNs);
  }
  double spanAllocs = 0;
  for (std::size_t l = 0; l < trace::kLayerCount; ++l) {
    spanAllocs +=
        static_cast<double>(layer(static_cast<Layer>(l)).selfAllocs);
  }
  const bool runner = extras.runnerThreadNs > 0;
  out.add("core.runner.self_us",
          runner ? ratio((extras.runnerThreadNs - stageNs - benchNs) / 1e3,
                         extras.runnerWindows)
                 : 0.0,
          "us");
  out.add("core.runner.pipeline_busy_frac",
          ratio(stageNs, extras.runnerThreadNs), "ratio");
  out.add("core.runner.allocs_per_window",
          runner ? ratio(extras.runnerAllocs - spanAllocs,
                         extras.runnerWindows)
                 : 0.0,
          "count");

  const Cell frontEnd = layer(Layer::kFrontEnd);
  out.add("core.front_end.self_us", selfUs(frontEnd), "us");
  out.add("core.front_end.allocs_per_call", allocsPerCall(frontEnd), "count");

  for (const Layer l :
       {Layer::kEbbiBuild, Layer::kMedian, Layer::kRpn, Layer::kCca,
        Layer::kRegionFilter, Layer::kOverlap, Layer::kKalman, Layer::kHybrid,
        Layer::kNnFilter, Layer::kEbms}) {
    const Cell c = layer(l);
    const std::string key = trace::layerKey(l);
    out.add(key + ".self_us", selfUs(c), "us");
    out.add(key + ".allocs_per_call", allocsPerCall(c), "count");
    out.add(key + ".ops_per_window", opsPerCall(c), "ops");
    if (l == Layer::kRegionFilter) {
      out.add(key + ".accept_ratio",
              ratio(counter(Counter::kRegionAccepted),
                    counter(Counter::kRegionProposals)),
              "ratio");
    } else if (l == Layer::kNnFilter) {
      out.add(key + ".pass_ratio",
              ratio(counter(Counter::kNnEventsPassed),
                    counter(Counter::kNnEventsIn)),
              "ratio");
    } else if (l == Layer::kEbms) {
      out.add(key + ".clusters_per_window",
              ratio(counter(Counter::kEbmsClusters),
                    static_cast<double>(c.calls)),
              "count");
    }
  }

  // Whole-window cost of each registered variant (0 where not run).
  for (const std::string& key : ebbiot::variantRegistry().keys()) {
    double ns = 0;
    double ops = 0;
    double windows = 0;
    for (std::size_t tag = 0; tag < variantTags.size(); ++tag) {
      if (variantTags[tag] != key) {
        continue;
      }
      const auto v = static_cast<std::uint8_t>(tag);
      for (const Layer l : kTopStages) {
        ns += static_cast<double>(totals.at(l, v).totalNs);
      }
      for (std::size_t l = 0; l < trace::kLayerCount; ++l) {
        ops += static_cast<double>(totals.at(static_cast<Layer>(l), v).ops);
      }
      for (const Layer l : kWindowEnd) {
        windows += static_cast<double>(totals.at(l, v).calls);
      }
    }
    const std::string prefix = "variant." + sanitizeName(key);
    out.add(prefix + ".us_per_window", ratio(ns / 1e3, windows), "us");
    out.add(prefix + ".ops_per_window", ratio(ops, windows), "ops");
  }

  // Trace consistency: the system layers' self times add up to the
  // traced total measured outside the spans (extras.busyNs).  What they
  // miss is work no span covers: the harness loop and the benchmark's
  // own track capture on the fleets, the staged pipelines' glue between
  // stage calls on the sweep.  Spans nest inside that total, so the sum
  // cannot exceed it beyond clock granularity.
  double selfSum = 0;
  for (std::size_t l = 0; l < trace::kLayerCount; ++l) {
    const auto id = static_cast<Layer>(l);
    if (id != Layer::kObserver && id != Layer::kSource) {
      selfSum += static_cast<double>(layer(id).selfNs);
    }
  }
  const double layerSumFrac = ratio(selfSum, extras.busyNs);
  check(layerSumFrac >= 0.95 && layerSumFrac <= 1.001,
        "trace consistency: layer self times sum to " +
            std::to_string(layerSumFrac) + " of the traced total");

  out.add("bench.gen_lag_p99_us", extras.genLagP99Us, "us");
  out.add("bench.latency_samples", extras.latencySamples, "count");
  out.add("bench.failed_frac", extras.failedFrac, "ratio");
  out.add("trace.overhead_frac", extras.overheadFrac, "ratio");
  out.add("trace.layer_sum_frac", layerSumFrac, "ratio");
}

}  // namespace perfbench
