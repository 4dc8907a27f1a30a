#include "src/core/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/error.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

struct Fixture {
  Fixture() : scene(240, 180) {
    scene.addLinear(ObjectClass::kCar, BBox{-48, 60, 48, 22}, Vec2f{60, 0},
                    0, secondsToUs(20.0));
    scene.addLinear(ObjectClass::kVan, BBox{240, 100, 60, 28},
                    Vec2f{-45, 0}, secondsToUs(1.0), secondsToUs(20.0));
    EventSynthConfig config;
    config.backgroundActivityHz = 0.3;
    config.seed = 31;
    synth = std::make_unique<FastEventSynth>(scene, config);
  }
  ScriptedScene scene;
  std::unique_ptr<FastEventSynth> synth;
};

TEST(RunnerTest, RunsAllPipelinesAndCountsFrames) {
  Fixture fix;
  const RunnerConfig config;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(8.0), config);
  const auto expectedFrames =
      static_cast<std::size_t>(secondsToUs(8.0) / kDefaultFramePeriodUs);
  EXPECT_EQ(result.frames, expectedFrames);
  ASSERT_EQ(result.pipelines.size(), 3U);
  for (const PipelineRunStats& stats : result.pipelines) {
    EXPECT_EQ(stats.frames, expectedFrames) << stats.name;
  }
  EXPECT_EQ(result.thresholds, config.iouThresholds);
  EXPECT_GT(result.streamEvents, 0U);
  EXPECT_GT(result.latchedEvents, 0U);
  EXPECT_LE(result.latchedEvents, result.streamEvents);
  EXPECT_EQ(result.gtTracks, 2U);
  EXPECT_GT(result.gtBoxes, 0U);
}

TEST(RunnerTest, EbbiotAchievesGoodRecallOnEasyScene) {
  Fixture fix;
  const RunnerConfig config;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(8.0), config);
  // At IoU 0.3 on two clean vehicles, EBBIOT should recall most boxes.
  const PrCounts& counts = result.stats("EBBIOT")->counts[2];  // IoU 0.3
  EXPECT_GT(counts.recall(), 0.6);
  EXPECT_GT(counts.precision(), 0.6);
}

TEST(RunnerTest, PipelinesCanBeDisabled) {
  Fixture fix;
  RunnerConfig config;
  config.variants = {"EBBIOT"};
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  ASSERT_EQ(result.pipelines.size(), 1U);
  EXPECT_NE(result.stats("EBBIOT"), nullptr);
  EXPECT_EQ(result.stats("EBBI+KF"), nullptr);
  EXPECT_EQ(result.stats("EBMS"), nullptr);
  // No event-domain pipeline ran, so nothing was NN-filtered.
  EXPECT_EQ(result.meanFilteredEventsPerFrame, 0.0);
}

TEST(RunnerTest, StatsKeyedByPipelineName) {
  Fixture fix;
  const RunnerConfig config;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  ASSERT_EQ(result.pipelines.size(), 3U);
  EXPECT_EQ(result.pipelines[0].name, "EBBIOT");
  EXPECT_EQ(result.pipelines[1].name, "EBBI+KF");
  EXPECT_EQ(result.pipelines[2].name, "EBMS");
  ASSERT_NE(result.stats("EBBIOT"), nullptr);
  ASSERT_NE(result.stats("EBBI+KF"), nullptr);
  ASSERT_NE(result.stats("EBMS"), nullptr);
  EXPECT_EQ(result.stats("nonesuch"), nullptr);
  EXPECT_EQ(result.meanFilteredEventsPerFrame,
            result.stats("EBMS")->filteredEventsPerFrame);
}

TEST(RunnerTest, ExtraPipelineRegistersInOneLine) {
  Fixture fix;
  RunnerConfig config;
  config.variants = {"EBBIOT"};
  EbbiotPipelineConfig ccaVariant;
  ccaVariant.rpnKind = RpnKind::kCca;
  ccaVariant.cca.minComponentPixels = 6;
  config.extraPipelines.push_back([ccaVariant] {
    return std::make_unique<EbbiotPipeline>(ccaVariant, "EBBIOT-cca");
  });
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(4.0), config);
  ASSERT_EQ(result.pipelines.size(), 2U);
  const PipelineRunStats* cca = result.stats("EBBIOT-cca");
  ASSERT_NE(cca, nullptr);
  EXPECT_EQ(cca->frames, result.frames);
  EXPECT_GT(cca->totalOps.total(), 0U);
  // Both variants see the same recording; the CCA variant tracks too.
  EXPECT_GT(cca->counts[0].recall(), 0.3);
}

TEST(RunnerTest, DuplicatePipelineNamesRejected) {
  Fixture fix;
  {
    // A repeated variant key is a configuration error, caught up front.
    RunnerConfig config;
    config.variants = {"EBBIOT", "EBMS", "EBBIOT"};
    EXPECT_THROW(
        (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
        ConfigError);
  }
  {
    // A factory's pipeline name is known only once built.
    RunnerConfig config;
    config.extraPipelines.push_back([] {
      return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{});
    });
    EXPECT_THROW(
        (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
        LogicError);
  }
}

TEST(RunnerTest, MaxFramesLimitsWork) {
  Fixture fix;
  RunnerConfig config;
  config.maxFrames = 5;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(8.0), config);
  EXPECT_EQ(result.frames, 5U);
}

TEST(RunnerTest, MeanStatsPopulated) {
  Fixture fix;
  const RunnerConfig config;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(4.0), config);
  EXPECT_GT(result.meanAlpha, 0.0);
  EXPECT_LT(result.meanAlpha, 0.2);
  EXPECT_GE(result.meanBeta, 1.0);
  EXPECT_GT(result.meanEventsPerFrame, 0.0);
  EXPECT_GT(result.meanFilteredEventsPerFrame, 0.0);
  EXPECT_LT(result.meanFilteredEventsPerFrame, result.meanEventsPerFrame);
  EXPECT_GT(result.stats("EBBIOT")->meanOpsPerFrame(), 0.0);
}

TEST(RunnerTest, ToRecordingResultCarriesWeights) {
  Fixture fix;
  const RunnerConfig config;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(4.0), config);
  const RecordingResult rec =
      result.toRecordingResult(*result.stats("EBBIOT"), "unit");
  EXPECT_EQ(rec.name, "unit");
  EXPECT_EQ(rec.gtTracks, result.gtTracks);
  EXPECT_EQ(rec.thresholds, result.thresholds);
  EXPECT_EQ(rec.counts.size(), result.thresholds.size());
}

TEST(RunnerTest, GeometryMismatchRejected) {
  Fixture fix;
  ScriptedScene other(120, 90);
  const RunnerConfig config;
  EXPECT_THROW(
      (void)runRecording(*fix.synth, other, secondsToUs(1.0), config),
      LogicError);
}

TEST(RunnerTest, VariantGeometryComesFromTheSource) {
  // A 320x240 sensor with a car crossing all of it: a default config must
  // build every variant at the source's size, not at 240x180.
  ScriptedScene scene(320, 240);
  scene.addLinear(ObjectClass::kCar, BBox{-48, 150, 48, 22}, Vec2f{80, 0},
                  0, secondsToUs(6.0));
  EventSynthConfig synthConfig;
  synthConfig.backgroundActivityHz = 0.3;
  synthConfig.seed = 5;
  FastEventSynth synth(scene, synthConfig);
  const RunResult result =
      runRecording(synth, scene, secondsToUs(6.0), RunnerConfig{});
  ASSERT_EQ(result.pipelines.size(), 3U);
  for (const PipelineRunStats& stats : result.pipelines) {
    EXPECT_EQ(stats.frames, result.frames) << stats.name;
    EXPECT_GT(stats.totalOps.total(), 0U) << stats.name;
  }
  EXPECT_GT(result.stats("EBBIOT")->counts[0].recall(), 0.5);
}

TEST(RunnerTest, ZeroDurationRejected) {
  Fixture fix;
  const RunnerConfig config;
  EXPECT_THROW((void)runRecording(*fix.synth, fix.scene, 0, config),
               LogicError);
}

TEST(RunnerConfigTest, DefaultIsValid) {
  EXPECT_NO_THROW(RunnerConfig{}.validate());
  EXPECT_NO_THROW(makeRegistryRunnerConfig(240, 180).validate());
}

TEST(RunnerConfigTest, BadValuesThrowConfigError) {
  {
    RunnerConfig config;
    config.framePeriod = 0;
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config;
    config.framePeriod = -66'000;
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config;
    config.iouThresholds.clear();
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config;
    config.iouThresholds = {0.5f, 1.5f};
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config;
    config.iouThresholds = {-0.1f};
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config;
    config.variants = {"EBBIOT", "nonesuch"};
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config;
    config.variants = {"EBMS", "EBBIOT", "EBMS"};
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    // Keys resolve against the configured registry, not the global one.
    VariantRegistry local;
    RunnerConfig config;
    config.registry = &local;
    EXPECT_THROW(config.validate(), ConfigError);
    config.variants.clear();
    EXPECT_NO_THROW(config.validate());
  }
}

TEST(RunnerConfigTest, RunRecordingValidatesUpFront) {
  Fixture fix;
  {
    RunnerConfig config;
    config.iouThresholds.clear();
    EXPECT_THROW(
        (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
        ConfigError);
  }
  // A bad key is rejected before any pipeline is built.
  int built = 0;
  VariantRegistry local;
  local.add("counted", "counts its builds", [&built](const VariantContext&) {
    ++built;
    return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{},
                                            "counted");
  });
  RunnerConfig config;
  config.registry = &local;
  config.variants = {"counted", "nonesuch"};
  EXPECT_THROW(
      (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
      ConfigError);
  EXPECT_EQ(built, 0);
}

}  // namespace
}  // namespace ebbiot
