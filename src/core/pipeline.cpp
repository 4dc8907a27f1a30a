#include "src/core/pipeline.hpp"

namespace ebbiot {

EbmsPipeline::EbmsPipeline(const EbmsPipelineConfig& config, std::string name)
    : config_(config),
      name_(std::move(name)),
      nnFilter_(config.nnFilter),
      tracker_(config.ebms) {
  if (config.refractoryPeriod > 0) {
    refractory_.emplace(RefractoryFilterConfig{
        config.nnFilter.width, config.nnFilter.height,
        config.refractoryPeriod});
  }
}

Tracks EbmsPipeline::processWindow(const EventPacket& packet) {
  Tracks out;
  processWindowInto(packet, out);
  return out;
}

void EbmsPipeline::processWindowInto(const EventPacket& packet, Tracks& out) {
  // The intermediate packets and the tracks vector are reused members:
  // after one warm-up window the event-domain steady state allocates
  // nothing internally (like the frame path); only processWindow()'s
  // by-value return does.
  const EventPacket* in = &packet;
  if (refractory_.has_value()) {
    refractory_->filterInto(packet, refracted_);
    in = &refracted_;
  }
  nnFilter_.filterInto(*in, filtered_);
  stageOps_.nnFilter = nnFilter_.lastOps();
  lastFilteredCount_ = filtered_.size();
  tracker_.processPacket(filtered_);
  stageOps_.ebms = tracker_.lastOps();
  tracker_.visibleTracksInto(tracks_);
  out = tracks_;  // copy-assign: reuses out's capacity
}

std::unique_ptr<PipelineSnapshot> EbmsPipeline::makeSnapshot() const {
  return std::make_unique<EbmsPipelineSnapshot>(nnFilter_, tracker_,
                                                refractory_);
}

bool EbmsPipeline::saveState(PipelineSnapshot& out) const {
  auto* snap = dynamic_cast<EbmsPipelineSnapshot*>(&out);
  if (snap == nullptr) {
    return false;
  }
  snap->nnFilter = nnFilter_;
  snap->tracker = tracker_;
  snap->refractory = refractory_;
  return true;
}

bool EbmsPipeline::restoreState(const PipelineSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const EbmsPipelineSnapshot*>(&snapshot);
  if (snap == nullptr ||
      snap->refractory.has_value() != refractory_.has_value()) {
    return false;
  }
  nnFilter_ = snap->nnFilter;
  tracker_ = snap->tracker;
  refractory_ = snap->refractory;
  return true;
}

void EbmsPipeline::resetState() {
  if (refractory_.has_value()) {
    refractory_->reset();
  }
  nnFilter_.reset();
  tracker_ = EbmsTracker(config_.ebms);
  stageOps_ = EbmsStageOps{};
  tracks_.clear();
  lastFilteredCount_ = 0;
}

}  // namespace ebbiot
