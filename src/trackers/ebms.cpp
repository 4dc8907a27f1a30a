#include "src/trackers/ebms.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "src/common/error.hpp"

namespace ebbiot {

EbmsTracker::EbmsTracker(const EbmsConfig& config) : config_(config) {
  EBBIOT_ASSERT(config.maxClusters >= 1);
  EBBIOT_ASSERT(config.captureRadius > 0.0F);
  EBBIOT_ASSERT(config.mixingFactor > 0.0F && config.mixingFactor <= 1.0F);
  EBBIOT_ASSERT(config.velocityWindow >= 2);
  const auto n = static_cast<std::size_t>(config.maxClusters);
  const auto w = static_cast<std::size_t>(config.velocityWindow);
  posX_.resize(n);
  posY_.resize(n);
  madX_.resize(n);
  madY_.resize(n);
  velX_.resize(n);
  velY_.resize(n);
  support_.resize(n);
  id_.resize(n);
  lastEventT_.resize(n);
  lastSampleT_.resize(n);
  bornT_.resize(n);
  sums_.resize(n);
  histOrigin_.resize(n);
  histBegin_.resize(n);
  histCount_.resize(n);
  histT_.resize(n * w);
  histQx_.resize(n * w);
  histQy_.resize(n * w);
  boxes_.resize(n);
  gridEnabled_ = config.maxClusters <= 64;
  if (gridEnabled_) {
    gridSlack_ = std::max(8.0F, config.captureRadius * 0.5F);
    grid_.resize(static_cast<std::size_t>(kGridDim) * kGridDim, 0);
    anchorX_.resize(n);
    anchorY_.resize(n);
  }
}

BBox EbmsTracker::boxOf(int i) const {
  // Rectangular extent from the mean absolute deviation of recent events:
  // for a uniform box profile, full width ~= 4 * MAD.
  const auto idx = static_cast<std::size_t>(i);
  const float w = std::max(config_.minBoxSide, 4.0F * madX_[idx]);
  const float h = std::max(config_.minBoxSide, 4.0F * madY_[idx]);
  return BBox{posX_[idx] - w / 2.0F, posY_[idx] - h / 2.0F, w, h};
}

void EbmsTracker::processEvent(const Event& event) {
  Tally tally;
  eventStep(event, hotConfig(), tally);
  chargeEventOps(tally);  // per-call, like the reference's inline metering
}

void EbmsTracker::chargeEventOps(const Tally& tally) {
  // Closed form of the reference's per-event metering: 2 compares +
  // 2 adds per cluster scanned, 8 multiplies + 4 adds per captured
  // event.  (The sampling and seeding memWrites are charged by the cold
  // paths themselves.)
  ops_.compares += 2 * tally.scanned;
  ops_.adds += 2 * tally.scanned + 4 * tally.captured;
  ops_.multiplies += 8 * tally.captured;
}

// Hot per-event body.  Deliberately tiny (the sampling/seeding/rebuild
// tails live in out-of-line cold functions) so it inlines into the
// packet loop — a per-event call would cost more than the scan itself.
inline void EbmsTracker::eventStep(const Event& event, const HotConfig& hot,
                                   Tally& tally) {
  const float px = static_cast<float>(event.x) + 0.5F;
  const float py = static_cast<float>(event.y) + 0.5F;
  const int n = count_;
  // The reference scans every cluster for every event; the closed-form
  // accounting charges the same whether or not the candidate mask lets
  // this event skip most (or all) of the scan.
  tally.scanned += static_cast<std::uint64_t>(n);
  if (n > 0) {
    // Nearest cluster whose capture region contains the event (L1 argmin,
    // first-lowest-index wins ties — exactly the reference's scan).  With
    // the capture grid the scan visits only the event's cell candidates:
    // every cluster missing from the mask is provably outside capture
    // range (see the grid invariant in the header), so the argmin over
    // the mask equals the argmin over all clusters.  Mask bits are
    // visited in ascending index order, preserving the tie-break.
    int best = -1;
    float bestKey = std::numeric_limits<float>::max();
    const float* xs = posX_.data();
    const float* ys = posY_.data();
    const auto consider = [&](int i) {
      const float dx = std::abs(px - xs[i]);
      const float dy = std::abs(py - ys[i]);
      if (dx <= hot.radius && dy <= hot.radius) {
        const float d = dx + dy;
        if (d < bestKey) {  // strict <: first-lowest-index wins ties
          bestKey = d;
          best = i;
        }
      }
    };
    if (gridEnabled_) {
      const int cx =
          std::min(static_cast<int>(event.x) >> kGridShift, kGridDim - 1);
      const int cy =
          std::min(static_cast<int>(event.y) >> kGridShift, kGridDim - 1);
      for (std::uint64_t m = grid_[static_cast<std::size_t>(cy) * kGridDim +
                                   static_cast<std::size_t>(cx)];
           m != 0; m &= m - 1) {
        consider(std::countr_zero(m));
      }
    } else {
      for (int i = 0; i < n; ++i) {
        consider(i);
      }
    }
    if (best >= 0) {
      ++tally.captured;
      applyCapture(best, px, py, event.t, hot);
      return;
    }
  }
  // Seed a potential cluster if a slot is free.
  if (n < hot.maxClusters) [[unlikely]] {
    seedCluster(px, py, event.t);
  }
}

// The captured-event update, shared verbatim by the scalar eventStep and
// the grouped phase-B replay so both produce the identical float
// sequence: size estimate first (deviation measured against the centroid
// *before* the mean-shift step), then the mean-shift itself.
inline void EbmsTracker::applyCapture(int best, float px, float py, TimeUs t,
                                      const HotConfig& hot) {
  const auto b = static_cast<std::size_t>(best);
  const float bestDx = std::abs(px - posX_[b]);
  const float bestDy = std::abs(py - posY_[b]);
  const float s = hot.smoothing;
  madX_[b] = s * madX_[b] + (1.0F - s) * bestDx;
  madY_[b] = s * madY_[b] + (1.0F - s) * bestDy;
  const float m = hot.mixing;
  const float nx = (1.0F - m) * posX_[b] + m * px;
  const float ny = (1.0F - m) * posY_[b] + m * py;
  posX_[b] = nx;
  posY_[b] = ny;
  ++support_[b];
  lastEventT_[b] = t;
  const bool sample = t - lastSampleT_[b] >= hot.sampleInterval;
  // Re-anchor the grid before the drift eats the 1 px safety margin
  // the cell masks' slack leaves over the capture radius.
  const bool rebuild =
      gridEnabled_ && (std::abs(nx - anchorX_[b]) > hot.driftLimit ||
                       std::abs(ny - anchorY_[b]) > hot.driftLimit);
  if (sample || rebuild) [[unlikely]] {
    capturedSlowPath(best, t, nx, ny, sample, rebuild);
  }
}

void EbmsTracker::capturedSlowPath(int b, TimeUs t, float nx, float ny,
                                   bool sample, bool rebuild) {
  if (sample) {
    pushSample(b, t, nx, ny);
    lastSampleT_[static_cast<std::size_t>(b)] = t;
    ops_.memWrites += 3;
  }
  if (rebuild) {
    rebuildGrid();
  }
}

void EbmsTracker::seedCluster(float px, float py, TimeUs t) {
  const auto i = static_cast<std::size_t>(count_);
  id_[i] = nextId_++;
  posX_[i] = px;
  posY_[i] = py;
  madX_[i] = kEbmsInitialMad;
  madY_[i] = kEbmsInitialMad;
  velX_[i] = 0.0F;
  velY_[i] = 0.0F;
  support_[i] = 1;
  lastEventT_[i] = t;
  lastSampleT_[i] = t;
  bornT_[i] = t;
  sums_[i] = {};
  histBegin_[i] = 0;
  histCount_[i] = 0;
  ++count_;
  pushSample(static_cast<int>(i), t, px, py);
  if (gridEnabled_) {
    rebuildGrid();
  }
  ops_.memWrites += 6;
}

void EbmsTracker::pushSample(int i, TimeUs t, float x, float y) {
  const int w = config_.velocityWindow;
  const auto idx = static_cast<std::size_t>(i);
  const std::size_t base = idx * static_cast<std::size_t>(w);
  const std::int64_t qx = ebms_detail::quantizePosition(x);
  const std::int64_t qy = ebms_detail::quantizePosition(y);
  if (histCount_[idx] == 0) {
    // Fixed per-cluster origin; any origin solves the same fit exactly
    // (shift invariance of the integer sums, see ebms_common.hpp).
    histOrigin_[idx] = t;
  } else if (histCount_[idx] == w) {
    const std::size_t oldest =
        base + static_cast<std::size_t>(histBegin_[idx]);
    sums_[idx].remove(
        static_cast<std::uint64_t>(histT_[oldest] - histOrigin_[idx]),
        histQx_[oldest], histQy_[oldest]);
    histBegin_[idx] = (histBegin_[idx] + 1) % w;
    --histCount_[idx];
  }
  const std::size_t slot =
      base + static_cast<std::size_t>((histBegin_[idx] + histCount_[idx]) % w);
  histT_[slot] = t;
  histQx_[slot] = qx;
  histQy_[slot] = qy;
  sums_[idx].add(static_cast<std::uint64_t>(t - histOrigin_[idx]), qx, qy);
  ++histCount_[idx];
}

void EbmsTracker::processPacket(const EventPacket& packet) {
  ops_.reset();
  const HotConfig hot = hotConfig();
  Tally tally;  // stays in registers across the loop
  if (gridEnabled_) {
    processPacketGrouped(packet, hot, tally);
  } else {
    for (const Event& e : packet) {
      eventStep(e, hot, tally);
    }
  }
  chargeEventOps(tally);
  maintain(packet.tEnd());
}

namespace {

/// Safety margin, px, the proven-drift-headroom counter keeps over the
/// worst-case accumulated mean-shift drift.  Per-capture float rounding
/// is on the order of an ulp of the position, so a quarter pixel covers
/// any feasible run length thousands of times over.
constexpr float kDriftPad = 0.25F;

}  // namespace

// Run-based overlapped cluster chains.  Event streams are bursty: an
// object's events reach the packet in runs (sensor readout locality),
// and in the sequential loop each capture's EMA update must round-trip
// the SoA arrays before the next event's capture test can issue — the
// same-typed float vectors defeat alias analysis, so the whole run
// becomes one memory-serialised dependency chain.
//
// This path peels those runs off explicitly.  When an event's capture-
// grid cell holds exactly one candidate cluster, the grid invariant
// proves every other cluster is out of capture range, so the scalar L1
// argmin degenerates to a single radius test against that cluster.  The
// run loop then applies consecutive such events with the cluster state
// held in registers, reproducing applyCapture's float sequence verbatim
// (the differential suite in tests/test_ebms_soa.cpp pins this copy
// against the scalar step and the reference).  State goes back to the
// SoA arrays only at run boundaries, so consecutive runs — distinct
// clusters by construction — are independent dependency chains the
// out-of-order core overlaps at CLmax = 8.
//
// While every cluster slot is taken, a miss cannot seed — the scalar
// step discards the event after charging the scan — so the run also
// absorbs interleaved noise without breaking: empty-cell events, misses
// on this run's candidate, and misses on a *different* lone candidate
// (whose SoA state is current, only the run's own cluster lives in
// registers) are all provably stateless and just advance the cursor.
//
// Anything the run loop cannot reproduce locally falls back to the
// exact scalar eventStep for that event:
//
//   * a cell whose mask holds several candidates (clusters close enough
//     to contend — order matters there);
//   * any miss or empty cell while a slot is free (it may seed);
//   * a capture belonging to another cluster (the outer loop re-enters
//     and typically opens that cluster's run directly);
//   * a capture that re-anchors the grid (applied here exactly — store
//     back, shared slow path, reload — but it ends the run, because the
//     rebuilt masks must be re-read).
//
// Ops parity with the sequential loop is structural: count_ cannot
// change inside a run (seeds go through eventStep, which ends it), the
// scalar step charges count_ scans per event whether it captures or
// discards, so the scan charge is consumedEvents * count_ and each
// capture charges exactly one.
void EbmsTracker::processPacketGrouped(const EventPacket& packet,
                                       const HotConfig& hot, Tally& tally) {
  const std::span<const Event> events = packet.events();
  const std::size_t n = events.size();
  const float s = hot.smoothing;
  const float m = hot.mixing;
  const float s1 = 1.0F - s;  // hoisted: the loop body is register-starved
  const float m1 = 1.0F - m;
  // One capture moves a cluster at most step px in L-infinity (the
  // mean-shift pulls it a fraction m of a distance that the capture
  // test bounds by the radius), so after j captures the drift against
  // the grid anchor grew by at most j * step plus float rounding —
  // which kDriftPad dwarfs by orders of magnitude at any feasible run
  // length.  That bound lets the run loop *prove* the rebuild test
  // false for a counted number of upcoming captures and skip computing
  // it, without ever skipping a check whose outcome could differ from
  // the scalar step's.
  const float step = m * hot.radius;
  std::size_t i = 0;
  while (i < n) {
    const Event& first = events[i];
    const int cellX =
        std::min(static_cast<int>(first.x) >> kGridShift, kGridDim - 1);
    const int cellY =
        std::min(static_cast<int>(first.y) >> kGridShift, kGridDim - 1);
    const std::uint64_t mask =
        grid_[static_cast<std::size_t>(cellY) * kGridDim +
              static_cast<std::size_t>(cellX)];
    if (mask == 0 || (mask & (mask - 1)) != 0) {
      eventStep(first, hot, tally);  // contended or empty cell: exact step
      ++i;
      continue;
    }
    const int c = std::countr_zero(mask);
    const auto ci = static_cast<std::size_t>(c);
    // Hoist the candidate's state into registers for the run.
    float cpx = posX_[ci];
    float cpy = posY_[ci];
    float cmx = madX_[ci];
    float cmy = madY_[ci];
    const float ax = anchorX_[ci];
    const float ay = anchorY_[ci];
    TimeUs sampleAt = lastSampleT_[ci] + hot.sampleInterval;
    const std::uint64_t supportBase = support_[ci];
    const float drift0 = std::max(std::abs(cpx - ax), std::abs(cpy - ay));
    int safe =
        static_cast<int>((hot.driftLimit - drift0 - kDriftPad) / step);
    // Grow the run's cell into a pixel-space window while every
    // neighbouring cell keeps the same singleton mask: for events
    // inside it the candidate-set check is four integer compares, no
    // grid load.  The grid cannot change under the window mid-run —
    // only seeds and re-anchors touch it, and both end the run.
    int cx0 = cellX;
    int cx1 = cellX;
    int cy0 = cellY;
    int cy1 = cellY;
    const auto stripSingleton = [&](int sx0, int sx1, int sy0, int sy1) {
      for (int cy = sy0; cy <= sy1; ++cy) {
        for (int cx = sx0; cx <= sx1; ++cx) {
          if (grid_[static_cast<std::size_t>(cy) * kGridDim +
                    static_cast<std::size_t>(cx)] != mask) {
            return false;
          }
        }
      }
      return true;
    };
    if (cx0 > 0 && stripSingleton(cx0 - 1, cx0 - 1, cy0, cy1)) {
      --cx0;
    }
    if (cx1 < kGridDim - 1 && stripSingleton(cx1 + 1, cx1 + 1, cy0, cy1)) {
      ++cx1;
    }
    if (cy0 > 0 && stripSingleton(cx0, cx1, cy0 - 1, cy0 - 1)) {
      --cy0;
    }
    if (cy1 < kGridDim - 1 && stripSingleton(cx0, cx1, cy1 + 1, cy1 + 1)) {
      ++cy1;
    }
    // The topmost cell row/column absorbs every clamped coordinate.
    const int bx0 = cx0 << kGridShift;
    const int bx1 = cx1 == kGridDim - 1 ? std::numeric_limits<int>::max()
                                        : ((cx1 + 1) << kGridShift) - 1;
    const int by0 = cy0 << kGridShift;
    const int by1 = cy1 == kGridDim - 1 ? std::numeric_limits<int>::max()
                                        : ((cy1 + 1) << kGridShift) - 1;
    const bool full = count_ >= hot.maxClusters;  // misses cannot seed
    std::size_t j = 0;       // events this run consumed (capture or discard)
    std::uint64_t caps = 0;  // captures among them
    TimeUs lastCapT = 0;
    bool reanchored = false;
    while (i + j < n) {
      const Event& e = events[i + j];
      const int ex = e.x;
      const int ey = e.y;
      if (ex < bx0 || ex > bx1 || ey < by0 || ey > by1) [[unlikely]] {
        // Outside the proven window: one grid load classifies the event.
        const std::uint64_t em =
            grid_[static_cast<std::size_t>(
                      std::min(ey >> kGridShift, kGridDim - 1)) *
                      kGridDim +
                  static_cast<std::size_t>(
                      std::min(ex >> kGridShift, kGridDim - 1))];
        if (em != mask) {
          if (em == 0) {
            if (!full) {
              break;  // an empty cell may seed: exact step
            }
            ++j;  // pure discard (scan charge only): the run survives
            continue;
          }
          if ((em & (em - 1)) == 0 && full) {
            // A different lone candidate, SoA state current: the capture
            // test is exact, and a miss is a pure discard.
            const auto oi =
                static_cast<std::size_t>(std::countr_zero(em));
            const float opx = static_cast<float>(ex) + 0.5F;
            const float opy = static_cast<float>(ey) + 0.5F;
            if (!(std::abs(opx - posX_[oi]) <= hot.radius &&
                  std::abs(opy - posY_[oi]) <= hot.radius)) {
              ++j;
              continue;
            }
          }
          break;  // contended cell, possible seed, or capture elsewhere
        }
        // Same singleton mask beyond the grown window: run continues.
      }
      const float px = static_cast<float>(ex) + 0.5F;
      const float py = static_cast<float>(ey) + 0.5F;
      // The scalar argmin over a singleton candidate set is just the
      // capture test against the register copy of the position.
      const float bestDx = std::abs(px - cpx);
      const float bestDy = std::abs(py - cpy);
      if (!(bestDx <= hot.radius && bestDy <= hot.radius)) [[unlikely]] {
        if (!full) {
          break;  // a miss may seed: exact step
        }
        ++j;  // full: the miss is stateless, keep the run open
        continue;
      }
      // applyCapture's float sequence, on the register copies.
      cmx = s * cmx + s1 * bestDx;
      cmy = s * cmy + s1 * bestDy;
      const float nx = m1 * cpx + m * px;
      const float ny = m1 * cpy + m * py;
      cpx = nx;
      cpy = ny;
      ++caps;
      ++j;
      lastCapT = e.t;
      bool rebuild = false;
      if (--safe < 0) [[unlikely]] {
        // Out of proven headroom: run the exact rebuild test, and bank
        // a fresh skip allowance from the actual drift if it passes.
        rebuild = std::abs(nx - ax) > hot.driftLimit ||
                  std::abs(ny - ay) > hot.driftLimit;
        if (!rebuild) {
          const float drift =
              std::max(std::abs(nx - ax), std::abs(ny - ay));
          safe = static_cast<int>(
              (hot.driftLimit - drift - kDriftPad) / step);
        }
      }
      if (e.t >= sampleAt || rebuild) [[unlikely]] {
        // The shared slow path reads the SoA state: store the registers
        // back first, run it, then pick up whatever it changed.
        posX_[ci] = cpx;
        posY_[ci] = cpy;
        madX_[ci] = cmx;
        madY_[ci] = cmy;
        support_[ci] = supportBase + caps;
        lastEventT_[ci] = e.t;
        capturedSlowPath(c, e.t, nx, ny, e.t >= sampleAt, rebuild);
        sampleAt = lastSampleT_[ci] + hot.sampleInterval;
        if (rebuild) {
          reanchored = true;  // masks changed: re-read them for the rest
          break;
        }
      }
    }
    if (j == 0) {
      eventStep(first, hot, tally);  // miss on the single candidate
      ++i;
      continue;
    }
    if (caps != 0 && !reanchored) {
      posX_[ci] = cpx;
      posY_[ci] = cpy;
      madX_[ci] = cmx;
      madY_[ci] = cmy;
      support_[ci] = supportBase + caps;
      lastEventT_[ci] = lastCapT;
    }
    tally.scanned +=
        static_cast<std::uint64_t>(j) * static_cast<std::uint64_t>(count_);
    tally.captured += caps;
    i += j;
  }
}
void EbmsTracker::maintain(TimeUs now) {
  // Prune silent clusters (comparisons charged on the pre-erase count).
  ops_.compares += static_cast<std::uint64_t>(count_);
  for (int i = count_ - 1; i >= 0; --i) {
    if (now - lastEventT_[static_cast<std::size_t>(i)] >
        config_.clusterLifetime) {
      eraseCluster(i);
    }
  }

  mergePass();

  for (int i = 0; i < count_; ++i) {
    refreshVelocity(i);
  }
  if (gridEnabled_) {
    rebuildGrid();  // prune/merge moved or removed clusters
  }
  lastMaintain_ = now;
}

void EbmsTracker::mergePass() {
  // Merge overlapping clusters; same pass (and metering) as the
  // reference: boxes cached per pass, survivor stored at the lower slot,
  // scan continues in place re-checking only the survivor's row.
  for (int i = 0; i < count_; ++i) {
    boxes_[static_cast<std::size_t>(i)] = boxOf(i);
    ops_.multiplies += 2;
    ops_.compares += 2;
  }
  int i = 0;
  while (i < count_) {
    int j = i + 1;
    while (j < count_) {
      ops_.compares += 4;
      if (!overlapMatches(boxes_[static_cast<std::size_t>(i)],
                          boxes_[static_cast<std::size_t>(j)],
                          config_.mergeOverlapFraction)) {
        ++j;
        continue;
      }
      const auto ii = static_cast<std::size_t>(i);
      const auto jj = static_cast<std::size_t>(j);
      const bool keepFirst = support_[ii] >= support_[jj];
      const auto k = keepFirst ? ii : jj;
      const auto d = keepFirst ? jj : ii;
      const float wK = static_cast<float>(support_[k]) /
                       static_cast<float>(support_[k] + support_[d]);
      const float mergedX = wK * posX_[k] + (1.0F - wK) * posX_[d];
      const float mergedY = wK * posY_[k] + (1.0F - wK) * posY_[d];
      const float mergedMadX = std::max(madX_[k], madX_[d]);
      const float mergedMadY = std::max(madY_[k], madY_[d]);
      const std::uint64_t mergedSupport = support_[k] + support_[d];
      const TimeUs mergedLastEventT = std::max(lastEventT_[k], lastEventT_[d]);
      ops_.multiplies += 4;
      ops_.adds += 6;
      if (!keepFirst) {
        copyClusterIdentity(j, i);  // survivor's id/history move to slot i
      }
      posX_[ii] = mergedX;
      posY_[ii] = mergedY;
      madX_[ii] = mergedMadX;
      madY_[ii] = mergedMadY;
      support_[ii] = mergedSupport;
      lastEventT_[ii] = mergedLastEventT;
      std::copy(boxes_.begin() + j + 1, boxes_.begin() + count_,
                boxes_.begin() + j);
      eraseCluster(j);
      boxes_[ii] = boxOf(i);
      ops_.multiplies += 2;
      ops_.compares += 2;
      ++mergeCount_;
      j = i + 1;  // the survivor's box changed: re-scan its row
    }
    ++i;
  }
}

void EbmsTracker::refreshVelocity(int i) {
  const auto idx = static_cast<std::size_t>(i);
  const std::uint64_t n = sums_[idx].n;
  if (n < 2) {
    velX_[idx] = 0.0F;
    velY_[idx] = 0.0F;
    return;
  }
  // The abstract accounting stays the reference's metered per-sample loop
  // (3 multiplies + 6 adds per history entry, 8 + 4 for the solve),
  // charged in closed form — the running sums make the solve O(1).
  ops_.multiplies += 3 * n;
  ops_.adds += 6 * n;
  const ebms_detail::VelocityFit fit = ebms_detail::solveVelocity(sums_[idx]);
  velX_[idx] = fit.velocity.x;
  velY_[idx] = fit.velocity.y;
  if (fit.fitted) {
    ops_.multiplies += 8;
    ops_.adds += 4;
  }
}

void EbmsTracker::eraseCluster(int i) {
  const auto shift = [&](auto& v) {
    std::copy(v.begin() + i + 1, v.begin() + count_, v.begin() + i);
  };
  shift(posX_);
  shift(posY_);
  shift(madX_);
  shift(madY_);
  shift(velX_);
  shift(velY_);
  shift(support_);
  shift(id_);
  shift(lastEventT_);
  shift(lastSampleT_);
  shift(bornT_);
  shift(sums_);
  shift(histOrigin_);
  shift(histBegin_);
  shift(histCount_);
  const auto w = static_cast<std::ptrdiff_t>(config_.velocityWindow);
  const auto from = static_cast<std::ptrdiff_t>(i + 1) * w;
  const auto to = static_cast<std::ptrdiff_t>(count_) * w;
  const auto dst = static_cast<std::ptrdiff_t>(i) * w;
  std::copy(histT_.begin() + from, histT_.begin() + to, histT_.begin() + dst);
  std::copy(histQx_.begin() + from, histQx_.begin() + to,
            histQx_.begin() + dst);
  std::copy(histQy_.begin() + from, histQy_.begin() + to,
            histQy_.begin() + dst);
  --count_;
}

void EbmsTracker::copyClusterIdentity(int from, int to) {
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  id_[t] = id_[f];
  bornT_[t] = bornT_[f];
  lastSampleT_[t] = lastSampleT_[f];
  velX_[t] = velX_[f];
  velY_[t] = velY_[f];
  sums_[t] = sums_[f];
  histOrigin_[t] = histOrigin_[f];
  histBegin_[t] = histBegin_[f];
  histCount_[t] = histCount_[f];
  const auto w = static_cast<std::size_t>(config_.velocityWindow);
  std::copy(histT_.begin() + static_cast<std::ptrdiff_t>(f * w),
            histT_.begin() + static_cast<std::ptrdiff_t>(f * w + w),
            histT_.begin() + static_cast<std::ptrdiff_t>(t * w));
  std::copy(histQx_.begin() + static_cast<std::ptrdiff_t>(f * w),
            histQx_.begin() + static_cast<std::ptrdiff_t>(f * w + w),
            histQx_.begin() + static_cast<std::ptrdiff_t>(t * w));
  std::copy(histQy_.begin() + static_cast<std::ptrdiff_t>(f * w),
            histQy_.begin() + static_cast<std::ptrdiff_t>(f * w + w),
            histQy_.begin() + static_cast<std::ptrdiff_t>(t * w));
}

int EbmsTracker::cellIndex(float v) {
  const int cell = static_cast<int>(std::floor(v)) >> kGridShift;
  return std::clamp(cell, 0, kGridDim - 1);
}

void EbmsTracker::rebuildGrid() {
  // Clear only the cell rectangle the previous rebuild registered: the
  // rest of the grid is guaranteed zero already.
  for (int cy = dirtyY0_; cy <= dirtyY1_; ++cy) {
    std::fill_n(grid_.begin() + static_cast<std::ptrdiff_t>(cy) * kGridDim +
                    dirtyX0_,
                dirtyX1_ - dirtyX0_ + 1, std::uint64_t{0});
  }
  dirtyX0_ = kGridDim;
  dirtyX1_ = -1;
  dirtyY0_ = kGridDim;
  dirtyY1_ = -1;
  // A cluster can capture an event only within captureRadius of its
  // *current* position; registering anchor +- (radius + slack) cells and
  // re-anchoring before drift reaches slack - 1 px keeps every mask a
  // superset of the truly reachable clusters, with a >= 1 px margin over
  // any float rounding in the |p - pos| <= radius test.
  const float reach = config_.captureRadius + gridSlack_;
  for (int i = 0; i < count_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    anchorX_[idx] = posX_[idx];
    anchorY_[idx] = posY_[idx];
    const int x0 = cellIndex(posX_[idx] - reach);
    const int x1 = cellIndex(posX_[idx] + reach);
    const int y0 = cellIndex(posY_[idx] - reach);
    const int y1 = cellIndex(posY_[idx] + reach);
    dirtyX0_ = std::min(dirtyX0_, x0);
    dirtyX1_ = std::max(dirtyX1_, x1);
    dirtyY0_ = std::min(dirtyY0_, y0);
    dirtyY1_ = std::max(dirtyY1_, y1);
    const std::uint64_t bit = std::uint64_t{1} << i;
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        grid_[static_cast<std::size_t>(cy) * kGridDim +
              static_cast<std::size_t>(cx)] |= bit;
      }
    }
  }
}

Track EbmsTracker::trackOf(int i) const {
  const auto idx = static_cast<std::size_t>(i);
  Track t;
  t.id = id_[idx];
  t.box = boxOf(i);
  t.velocity = Vec2f{velX_[idx], velY_[idx]};  // px/s
  t.hits = static_cast<int>(std::min<std::uint64_t>(
      support_[idx], std::numeric_limits<int>::max()));
  return t;
}

void EbmsTracker::visibleTracksInto(Tracks& out) const {
  out.clear();
  const auto minSupport =
      static_cast<std::uint64_t>(config_.visibilitySupport);
  for (int i = 0; i < count_; ++i) {
    if (support_[static_cast<std::size_t>(i)] < minSupport) {
      continue;
    }
    out.push_back(trackOf(i));
  }
}

void EbmsTracker::allClustersInto(Tracks& out) const {
  out.clear();
  for (int i = 0; i < count_; ++i) {
    out.push_back(trackOf(i));
  }
}

Tracks EbmsTracker::visibleTracks() const {
  Tracks out;
  visibleTracksInto(out);
  return out;
}

Tracks EbmsTracker::allClusters() const {
  Tracks out;
  allClustersInto(out);
  return out;
}

}  // namespace ebbiot
