// Event-Based Mean Shift cluster tracker (EBMS) — the fully event-driven
// baseline of Section II-C / Eq. (8), re-implemented from Delbruck & Lang
// (Frontiers in Neuroscience 2013; the jAER "RectangularClusterTracker"
// family).
//
// Operation per event (after NN-filt denoising):
//   * find the nearest cluster whose capture region contains the event;
//   * if found, update its running size estimate (mean absolute deviation
//     of event offsets, measured against the centroid *before* the step),
//     mean-shift the cluster toward the event with a small mixing factor
//     and bump its support count;
//   * otherwise seed a *potential* cluster in a free slot (CLmax bound);
//     potential clusters become visible once they accumulate enough
//     support events.
// Periodic maintenance (once per frame window in this implementation):
//   * prune clusters that have not received events within their lifetime;
//   * merge overlapping clusters, keeping the more-supported one (the
//     gamma_merge probability of Eq. (8));
//   * recompute velocity by least-squares regression over the last 10
//     sampled positions (the paper's stated velocity estimator).
//
// This class is the *batched structure-of-arrays fast path*: cluster
// state lives in parallel arrays sized CLmax at construction (positions,
// MADs, support, timestamps, velocity), and the per-event scan runs over
// those small arrays with the config hoisted into registers.  A coarse
// *capture grid* (32 px cells -> bitmask of clusters whose capture
// region, padded by a drift slack, can reach the cell) turns the
// capture-region early-exit into a per-cell candidate set: an event
// whose cell mask is empty can be captured by nothing and skips the
// scan entirely; otherwise only the masked clusters are tested — the
// argmin over that conservative superset equals the reference's full
// scan, bit for bit.  The position history is a fixed-capacity ring per
// cluster with running regression sums (see ebms_common.hpp), so the
// velocity fit is O(1) per sample and per maintain instead of
// O(window) per maintain — and the whole tracker allocates nothing
// after construction.
//
// processPacket additionally *overlaps independent cluster update
// chains*: the captured-update recurrences (MAD EMA + mean-shift) of
// distinct clusters share no state, but the sequential loop serialises
// them because each event's capture test reads the positions the
// previous update just stored.  The grouped path resolves a run of
// events to clusters up front against group-start position snapshots,
// admitting an event only when the snapshot plus a worst-case drift
// bound proves the sequential scan would pick the same single cluster
// (everything else — seeds, marginal-radius events, drift-budget
// exhaustion — flushes the group and replays through the exact scalar
// step).  The per-cluster chains then run back to back with no
// decision logic between them, so the out-of-order core overlaps the
// CLmax = 8 chains instead of draining one EMA latency per event.
//
// The scalar deque-based formulation is kept as EbmsTrackerReference
// (ebms_reference.hpp); differential tests pin this class bit-identical
// to it in clusters, visible tracks *and* OpCounts — the reference
// meters its ops as it runs, this class charges the same counts in
// closed form from per-packet tallies (the MedianFilter / CcaLabeler
// reference-pinning convention of PRs 3-4).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/common/time.hpp"
#include "src/events/event_packet.hpp"
#include "src/trackers/ebms_common.hpp"
#include "src/trackers/track.hpp"

namespace ebbiot {

struct EbmsConfig {
  int maxClusters = 8;            ///< CLmax of Eq. (8)
  float captureRadius = 30.0F;    ///< half-extent of the capture region, px
  float mixingFactor = 0.02F;     ///< mean-shift step per event
  int visibilitySupport = 15;     ///< events before a cluster is reported
  TimeUs clusterLifetime = 150'000;   ///< prune after this silence, us
  float mergeOverlapFraction = 0.4F;  ///< overlap triggering a merge
  int velocityWindow = 10;        ///< positions for the LSQ velocity fit
  TimeUs positionSampleInterval = 6'600;  ///< history sampling period, us
  float sizeSmoothing = 0.98F;    ///< EMA on the size estimate
  float minBoxSide = 6.0F;        ///< floor on reported box sides, px
};

/// Initial MAD of a freshly seeded cluster, px (both implementations).
inline constexpr float kEbmsInitialMad = 4.0F;

class EbmsTracker {
 public:
  explicit EbmsTracker(const EbmsConfig& config);

  /// Feed one denoised event.
  void processEvent(const Event& event);

  /// Feed a whole packet, then run maintenance (prune/merge/velocity) at
  /// the packet boundary.
  void processPacket(const EventPacket& packet);

  /// Clusters that have reached visibility, as tracks (box = estimated
  /// extent around the cluster centre), into a reused vector — the
  /// steady-state path allocates nothing once `out` has capacity.
  void visibleTracksInto(Tracks& out) const;

  /// All clusters including potential ones, into a reused vector.
  void allClustersInto(Tracks& out) const;

  /// Convenience by-value variants of the Into accessors.
  [[nodiscard]] Tracks visibleTracks() const;
  [[nodiscard]] Tracks allClusters() const;

  [[nodiscard]] int activeCount() const { return count_; }

  /// Ops across the most recent processPacket call, comparable to the
  /// per-frame C_EBMS of Eq. (8).  Charged in closed form; pinned equal
  /// to EbmsTrackerReference's metered counts by differential tests.
  /// ops-model: closed-form — per-event capture/update costs charged analytically;
  /// pinned against the metered reference by tests/test_ebms_soa.cpp.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  /// Number of cluster merges performed so far (drives the measured
  /// gamma_merge of Eq. (8)).
  [[nodiscard]] std::uint64_t mergeCount() const { return mergeCount_; }

  [[nodiscard]] const EbmsConfig& config() const { return config_; }

 private:
  /// Config fields of the per-event hot loop, copied into a local so the
  /// compiler can keep them in registers across the packet (stores into
  /// the SoA arrays cannot alias a stack copy).
  struct HotConfig {
    float radius;
    float mixing;
    float smoothing;
    float driftLimit;  ///< gridSlack_ - 1 px: re-anchor beyond this drift
    TimeUs sampleInterval;
    int maxClusters;
  };

  [[nodiscard]] HotConfig hotConfig() const {
    return {config_.captureRadius,          config_.mixingFactor,
            config_.sizeSmoothing,          gridSlack_ - 1.0F,
            config_.positionSampleInterval, config_.maxClusters};
  }

  /// Per-packet tallies of the event loop, kept in the caller's frame so
  /// the hot path updates registers, not member memory.
  struct Tally {
    std::uint64_t scanned = 0;
    std::uint64_t captured = 0;
  };

  // always_inline: GCC's size heuristics refuse to inline the event body
  // into the packet loop on their own, leaving a per-event call (and the
  // tally in memory instead of registers) that costs more than the
  // candidate scan itself.
  [[gnu::always_inline]] inline void eventStep(const Event& event,
                                               const HotConfig& hot,
                                               Tally& tally);
  // The captured-event update sequence, shared verbatim by eventStep and
  // the grouped phase-B path so both produce the identical float stream.
  [[gnu::always_inline]] inline void applyCapture(int best, float px,
                                                  float py, TimeUs t,
                                                  const HotConfig& hot);
  // Overlapped cluster chains (grid-enabled configs): resolve a run of
  // events to clusters against group-start snapshots (phase A), then
  // apply each cluster's mean-shift/MAD updates as its own dependency
  // chain (phase B).  Falls back to eventStep for any event whose
  // assignment is not provably identical to the sequential scan (seeds,
  // marginal-radius events, drift-budget exhaustion).  Bit-identical to
  // the reference by construction; see processPacketGrouped's comment.
  void processPacketGrouped(const EventPacket& packet, const HotConfig& hot,
                            Tally& tally);
  void chargeEventOps(const Tally& tally);
  void capturedSlowPath(int b, TimeUs t, float nx, float ny, bool sample,
                        bool rebuild);
  void seedCluster(float px, float py, TimeUs t);
  void pushSample(int i, TimeUs t, float x, float y);
  void maintain(TimeUs now);
  void mergePass();
  void refreshVelocity(int i);
  void eraseCluster(int i);
  void copyClusterIdentity(int from, int to);
  void rebuildGrid();
  [[nodiscard]] static int cellIndex(float v);
  [[nodiscard]] BBox boxOf(int i) const;
  [[nodiscard]] Track trackOf(int i) const;

  EbmsConfig config_;
  int count_ = 0;  ///< live clusters; arrays below are packed [0, count_)

  // Hot SoA state, sized maxClusters at construction.
  std::vector<float> posX_;
  std::vector<float> posY_;
  std::vector<float> madX_;
  std::vector<float> madY_;
  std::vector<float> velX_;
  std::vector<float> velY_;
  std::vector<std::uint64_t> support_;
  std::vector<std::uint32_t> id_;
  std::vector<TimeUs> lastEventT_;
  std::vector<TimeUs> lastSampleT_;
  std::vector<TimeUs> bornT_;

  // Velocity-fit state: per cluster a fixed-capacity ring of quantised
  // samples (slab of velocityWindow entries) plus running sums.
  std::vector<ebms_detail::VelocitySums> sums_;
  std::vector<TimeUs> histOrigin_;
  std::vector<int> histBegin_;
  std::vector<int> histCount_;
  std::vector<TimeUs> histT_;
  std::vector<std::int64_t> histQx_;
  std::vector<std::int64_t> histQy_;

  // Merge-pass box cache, packed [0, count_) like the arrays above.  Sized
  // maxClusters up front so a copied tracker (a pipeline snapshot save)
  // never grows it, whatever the cluster-count history.
  std::vector<BBox> boxes_;

  // Capture grid: 32-px cells over [0, 2048)^2 px (coordinates beyond
  // clamp into the edge cells on both the cluster and the event side, so
  // the candidate masks stay conservative for any uint16 coordinate).
  // Cell masks hold clusters whose capture region padded by gridSlack_
  // can reach the cell at *grid-build* positions (anchors); the grid is
  // rebuilt whenever a cluster drifts within 1 px of the slack, on
  // seeding, and after each maintain — so between rebuilds a cluster
  // missing from a cell's mask provably cannot capture events there.
  // Disabled (full scan fallback) when maxClusters exceeds the 64-bit
  // mask width.
  static constexpr int kGridShift = 5;
  static constexpr int kGridDim = 64;
  bool gridEnabled_ = false;
  /// Drift slack of the cell masks, px: half the capture radius (floored
  /// at 8) trades registration reach against rebuild rate.
  float gridSlack_ = 8.0F;
  std::vector<std::uint64_t> grid_;  ///< kGridDim^2 cell masks
  std::vector<float> anchorX_;       ///< positions at the last rebuild
  std::vector<float> anchorY_;
  // Cell rectangle registered by the last rebuild — the only part of the
  // grid that needs clearing on the next one (clusters cover a small
  // corner of the 2048-px grid range on real sensors).
  int dirtyX0_ = 0;
  int dirtyX1_ = -1;
  int dirtyY0_ = 0;
  int dirtyY1_ = -1;

  std::uint32_t nextId_ = 1;
  std::uint64_t mergeCount_ = 0;
  OpCounts ops_;
  TimeUs lastMaintain_ = 0;
};

}  // namespace ebbiot
