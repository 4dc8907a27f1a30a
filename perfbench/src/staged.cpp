#include "staged.hpp"

#include <optional>
#include <utility>

#include "src/detect/cca.hpp"
#include "src/detect/histogram_rpn.hpp"
#include "src/ebbi/ebbi_builder.hpp"
#include "src/filters/median_filter.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using ebbiot::EventPacket;
using ebbiot::InputDomain;
using ebbiot::OpCounts;
using ebbiot::Pipeline;
using ebbiot::PipelineSnapshot;
using ebbiot::RegionProposals;
using ebbiot::Tracks;
using trace::Layer;
using trace::Span;

template <typename Tracker>
constexpr Layer trackerLayer();
template <>
constexpr Layer trackerLayer<ebbiot::OverlapTracker>() {
  return Layer::kOverlap;
}
template <>
constexpr Layer trackerLayer<ebbiot::KalmanTracker>() {
  return Layer::kKalman;
}
template <>
constexpr Layer trackerLayer<ebbiot::HybridTracker>() {
  return Layer::kHybrid;
}

template <typename T>
struct CopySnapshot final : PipelineSnapshot {
  explicit CopySnapshot(const T& v) : value(v) {}
  T value;
};

/// FrameFrontEnd::process + FramePipeline::processWindow, stage by stage.
template <typename Tracker>
class StagedFramePipeline final : public Pipeline {
 public:
  using Library = ebbiot::FramePipeline<Tracker>;
  using Config = typename Library::Config;
  using Snapshot = CopySnapshot<Tracker>;

  StagedFramePipeline(const Config& config, std::string name,
                      std::uint8_t variant)
      : config_(config),
        name_(std::move(name)),
        variant_(variant),
        builder_(config.width, config.height),
        median_(config.medianPatch),
        rpn_(config.rpn),
        cca_(config.cca),
        ebbi_(config.width, config.height),
        filtered_(config.width, config.height),
        tracker_(Library::resolvedTrackerConfig(config)) {
    check(!config.incrementalMedian,
          "staged pipeline: incremental median is not mirrored");
    if (config.regionFilter.has_value()) {
      regionFilter_.emplace(*config.regionFilter);
    }
  }

  Tracks processWindow(const EventPacket& packet) override {
    const RegionProposals* proposals = nullptr;
    {
      const Span frontEnd(Layer::kFrontEnd, variant_);
      {
        const Span s(Layer::kEbbiBuild, variant_);
        builder_.buildInto(packet, ebbi_);
      }
      ops_.frontEnd.ebbi = builder_.lastOps();
      {
        const Span s(Layer::kMedian, variant_);
        median_.applyInto(ebbi_, filtered_);
      }
      ops_.frontEnd.medianFilter = median_.lastOps();
      if (config_.rpnKind == ebbiot::RpnKind::kHistogram) {
        const Span s(Layer::kRpn, variant_);
        proposals = &rpn_.propose(filtered_);
      } else {
        const Span s(Layer::kCca, variant_);
        proposals = &cca_.propose(filtered_);
      }
      ops_.frontEnd.rpn = config_.rpnKind == ebbiot::RpnKind::kHistogram
                              ? rpn_.lastOps()
                              : cca_.lastOps();
    }
    ops_.regionFilter = OpCounts{};
    if (regionFilter_.has_value()) {
      {
        const Span s(Layer::kRegionFilter, variant_);
        accepted_ = regionFilter_->apply(filtered_, *proposals);
      }
      ops_.regionFilter = regionFilter_->lastOps();
      trace::count(trace::Counter::kRegionProposals, proposals->size());
      trace::count(trace::Counter::kRegionAccepted, accepted_.size());
      trace::ops(Layer::kRegionFilter, variant_,
                 ops_.regionFilter.total());
      proposals = &accepted_;
    }
    Tracks tracks;
    {
      const Span s(trackerLayer<Tracker>(), variant_);
      tracks = tracker_.update(*proposals);
    }
    ops_.tracker = tracker_.lastOps();
    trace::ops(Layer::kEbbiBuild, variant_, ops_.frontEnd.ebbi.total());
    trace::ops(Layer::kMedian, variant_, ops_.frontEnd.medianFilter.total());
    trace::ops(config_.rpnKind == ebbiot::RpnKind::kHistogram ? Layer::kRpn
                                                              : Layer::kCca,
               variant_, ops_.frontEnd.rpn.total());
    trace::ops(trackerLayer<Tracker>(), variant_, ops_.tracker.total());
    return tracks;
  }

  [[nodiscard]] OpCounts lastOps() const override { return ops_.total(); }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] InputDomain inputDomain() const override {
    return InputDomain::kLatchedFrame;
  }

  [[nodiscard]] std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const override {
    return std::make_unique<Snapshot>(tracker_);
  }
  bool saveState(PipelineSnapshot& out) const override {
    auto* snap = dynamic_cast<Snapshot*>(&out);
    if (snap == nullptr) {
      return false;
    }
    snap->value = tracker_;
    return true;
  }
  bool restoreState(const PipelineSnapshot& snapshot) override {
    const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
    if (snap == nullptr) {
      return false;
    }
    tracker_ = snap->value;
    return true;
  }
  void resetState() override {
    tracker_ = Tracker(Library::resolvedTrackerConfig(config_));
    ops_ = ebbiot::StageOps{};
  }

 private:
  Config config_;
  std::string name_;
  std::uint8_t variant_;
  ebbiot::EbbiBuilder builder_;
  ebbiot::MedianFilter median_;
  ebbiot::HistogramRpn rpn_;
  ebbiot::CcaLabeler cca_;
  ebbiot::BinaryImage ebbi_;
  ebbiot::BinaryImage filtered_;
  std::optional<ebbiot::RegionFilter> regionFilter_;
  RegionProposals accepted_;
  Tracker tracker_;
  ebbiot::StageOps ops_;
};

/// EbmsPipeline::processWindow (no refractory stage), stage by stage.
class StagedEbmsPipeline final : public Pipeline {
 public:
  struct State {
    ebbiot::NnFilter nnFilter;
    ebbiot::EbmsTracker tracker;
  };
  using Snapshot = CopySnapshot<State>;

  StagedEbmsPipeline(const ebbiot::EbmsPipelineConfig& config,
                     std::string name, std::uint8_t variant)
      : config_(config),
        name_(std::move(name)),
        variant_(variant),
        state_{ebbiot::NnFilter(config.nnFilter),
               ebbiot::EbmsTracker(config.ebms)} {
    check(config.refractoryPeriod == 0,
          "staged pipeline: refractory stage is not mirrored");
  }

  Tracks processWindow(const EventPacket& packet) override {
    {
      const Span s(Layer::kNnFilter, variant_);
      state_.nnFilter.filterInto(packet, filtered_);
    }
    ops_.nnFilter = state_.nnFilter.lastOps();
    lastFiltered_ = filtered_.size();
    {
      const Span s(Layer::kEbms, variant_);
      state_.tracker.processPacket(filtered_);
      state_.tracker.visibleTracksInto(tracks_);
    }
    ops_.ebms = state_.tracker.lastOps();
    trace::count(trace::Counter::kNnEventsIn, packet.size());
    trace::count(trace::Counter::kNnEventsPassed, filtered_.size());
    trace::count(trace::Counter::kEbmsClusters,
                 static_cast<std::uint64_t>(state_.tracker.activeCount()));
    trace::ops(Layer::kNnFilter, variant_, ops_.nnFilter.total());
    trace::ops(Layer::kEbms, variant_, ops_.ebms.total());
    return tracks_;
  }

  [[nodiscard]] OpCounts lastOps() const override { return ops_.total(); }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] InputDomain inputDomain() const override {
    return InputDomain::kEventStream;
  }
  [[nodiscard]] std::size_t lastFilteredEventCount() const override {
    return lastFiltered_;
  }

  [[nodiscard]] std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const override {
    return std::make_unique<Snapshot>(state_);
  }
  bool saveState(PipelineSnapshot& out) const override {
    auto* snap = dynamic_cast<Snapshot*>(&out);
    if (snap == nullptr) {
      return false;
    }
    snap->value = state_;
    return true;
  }
  bool restoreState(const PipelineSnapshot& snapshot) override {
    const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
    if (snap == nullptr) {
      return false;
    }
    state_ = snap->value;
    return true;
  }
  void resetState() override {
    state_.nnFilter.reset();
    state_.tracker = ebbiot::EbmsTracker(config_.ebms);
    ops_ = ebbiot::EbmsStageOps{};
    tracks_.clear();
    lastFiltered_ = 0;
  }

 private:
  ebbiot::EbmsPipelineConfig config_;
  std::string name_;
  std::uint8_t variant_;
  State state_;
  ebbiot::EbmsStageOps ops_;
  EventPacket filtered_;
  Tracks tracks_;
  std::size_t lastFiltered_ = 0;
};

template <typename Tracker>
std::unique_ptr<Pipeline> stagedFrom(const Pipeline& library,
                                     std::uint8_t variant) {
  const auto* typed =
      dynamic_cast<const ebbiot::FramePipeline<Tracker>*>(&library);
  if (typed == nullptr) {
    return nullptr;
  }
  return std::make_unique<StagedFramePipeline<Tracker>>(
      typed->config(), typed->name(), variant);
}

}  // namespace

std::unique_ptr<Pipeline> makeStagedPipeline(const Pipeline& library,
                                             std::uint8_t variant) {
  if (auto p = stagedFrom<ebbiot::OverlapTracker>(library, variant)) {
    return p;
  }
  if (auto p = stagedFrom<ebbiot::KalmanTracker>(library, variant)) {
    return p;
  }
  if (auto p = stagedFrom<ebbiot::HybridTracker>(library, variant)) {
    return p;
  }
  if (const auto* ebms =
          dynamic_cast<const ebbiot::EbmsPipeline*>(&library)) {
    return std::make_unique<StagedEbmsPipeline>(ebms->config(),
                                                ebms->name(), variant);
  }
  throw CheckFailure("staged pipeline: no composition mirrors " +
                     library.name());
}

}  // namespace perfbench
