// Pipelines assembled by the benchmark from the library's public stage
// objects, one span around every stage call, for the traced runs.
//
// Each composition performs exactly the calls the library pipeline it
// mirrors performs (FramePipeline<Tracker> over FrameFrontEnd, or
// EbmsPipeline), on stage objects built from that pipeline's own config,
// so its tracks and OpCounts equal the library pipeline's; every run
// verifies this against the untraced reference.  Snapshot hooks mirror
// the library's too (the tracker, or NN surface + EBMS clusters, is the
// cross-window state), so PipelineSink's resync behaves the same.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

/// Traced composition mirroring `library` (an EbbiotPipeline,
/// KalmanPipeline, HybridPipeline or EbmsPipeline); spans carry
/// `variant`.  Throws CheckFailure for any other pipeline type or a
/// config the composition does not mirror.
[[nodiscard]] std::unique_ptr<ebbiot::Pipeline> makeStagedPipeline(
    const ebbiot::Pipeline& library, std::uint8_t variant);

}  // namespace perfbench
