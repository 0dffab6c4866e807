// ReadingPipeline mechanics and the PipelineMetrics accounting contract.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/metrics.hpp"
#include "core/tagwatch.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

namespace tagwatch::core {
namespace {

rf::TagReading make_reading(std::uint64_t t_us = 0) {
  rf::TagReading r;
  r.epc = util::Epc::from_hex("3000AABBCCDD");
  r.antenna = 1;
  r.timestamp = util::usec(static_cast<std::int64_t>(t_us));
  return r;
}

/// Counts deliveries; optionally declines every reading.
class CountingSink final : public ReadingSink {
 public:
  CountingSink(std::string name, bool accept = true)
      : name_(std::move(name)), accept_(accept) {}

  std::string_view name() const override { return name_; }
  bool on_reading(const rf::TagReading&, const ReadingContext& ctx) override {
    ++seen_;
    last_phase_ = ctx.phase;
    last_cycle_ = ctx.cycle_index;
    return accept_;
  }
  void on_cycle_end(const CycleReport&) override { ++cycles_; }

  std::size_t seen_ = 0;
  std::size_t cycles_ = 0;
  ReadPhase last_phase_ = ReadPhase::kPhase1;
  std::size_t last_cycle_ = 0;

 private:
  std::string name_;
  bool accept_;
};

TEST(ReadingPipeline, DispatchesToEverySinkInOrder) {
  ReadingPipeline pipeline;
  auto first = std::make_shared<CountingSink>("first");
  auto second = std::make_shared<CountingSink>("second");
  pipeline.add_sink(first);
  pipeline.add_sink(second);
  ASSERT_EQ(pipeline.sink_count(), 2u);

  pipeline.dispatch_batch({make_reading()},
                          {/*cycle_index=*/3, ReadPhase::kPhase2});
  EXPECT_EQ(first->seen_, 1u);
  EXPECT_EQ(second->seen_, 1u);
  EXPECT_EQ(second->last_phase_, ReadPhase::kPhase2);
  EXPECT_EQ(second->last_cycle_, 3u);
  EXPECT_EQ(pipeline.dispatched_total(), 1u);

  const auto stats = pipeline.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "first");
  EXPECT_EQ(stats[1].name, "second");
}

TEST(ReadingPipeline, DecliningSinkCountsAsDroppedAndDeliveryContinues) {
  ReadingPipeline pipeline;
  auto refuser = std::make_shared<CountingSink>("refuser", /*accept=*/false);
  auto taker = std::make_shared<CountingSink>("taker");
  pipeline.add_sink(refuser);
  pipeline.add_sink(taker);

  for (int i = 0; i < 5; ++i) {
    pipeline.dispatch_batch({make_reading(static_cast<std::uint64_t>(i))}, {});
  }
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats[0].delivered, 0u);
  EXPECT_EQ(stats[0].dropped, 5u);
  EXPECT_EQ(stats[1].delivered, 5u);
  EXPECT_EQ(stats[1].dropped, 0u);
  EXPECT_EQ(taker->seen_, 5u);
  EXPECT_GE(stats[0].mean_dispatch_us(), 0.0);
}

TEST(ReadingPipeline, RecoveredDeliveriesAreCountedPerAcceptingSink) {
  // The fleet marks re-covered orphan deliveries via ReadingContext; the
  // pipeline tallies them per sink, but only when the sink accepted.
  ReadingPipeline pipeline;
  auto refuser = std::make_shared<CountingSink>("refuser", /*accept=*/false);
  auto taker = std::make_shared<CountingSink>("taker");
  pipeline.add_sink(refuser);
  pipeline.add_sink(taker);

  const ReadingContext recovered{0, ReadPhase::kPhase2, /*source_id=*/0,
                                 /*recovered=*/true};
  pipeline.dispatch_batch({make_reading(1)}, recovered);
  pipeline.dispatch_batch({make_reading(2)}, {});  // Ordinary: not counted.
  pipeline.dispatch_batch({make_reading(3), make_reading(4)}, recovered);

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats[0].recovered, 0u);  // Declined: never counted.
  EXPECT_EQ(stats[1].delivered, 4u);
  EXPECT_EQ(stats[1].recovered, 3u);
}

/// Throws on every Nth reading (always, when every == 1).
class ThrowingSink final : public ReadingSink {
 public:
  explicit ThrowingSink(std::string name, std::size_t every = 1)
      : name_(std::move(name)), every_(every) {}

  std::string_view name() const override { return name_; }
  bool on_reading(const rf::TagReading&, const ReadingContext&) override {
    if (++seen_ % every_ == 0) throw std::runtime_error("sink exploded");
    return true;
  }
  void on_cycle_end(const CycleReport&) override {
    throw std::runtime_error("cycle-end exploded");
  }

  std::size_t seen_ = 0;

 private:
  std::string name_;
  std::size_t every_;
};

TEST(ReadingPipeline, ThrowingSinkLosesOnlyItsOwnReadings) {
  ReadingPipeline pipeline;
  auto before = std::make_shared<CountingSink>("before");
  auto bomb = std::make_shared<ThrowingSink>("bomb", /*every=*/2);
  auto after = std::make_shared<CountingSink>("after");
  pipeline.add_sink(before);
  pipeline.add_sink(bomb);
  pipeline.add_sink(after);

  for (int i = 0; i < 6; ++i) {
    pipeline.dispatch_batch({make_reading(static_cast<std::uint64_t>(i))}, {});
  }

  // Neighbours are untouched; the bomb's throws count as dropped, and the
  // exceptions counter singles them out from polite declines.
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats[0].delivered, 6u);
  EXPECT_EQ(stats[2].delivered, 6u);
  EXPECT_EQ(after->seen_, 6u);
  EXPECT_EQ(stats[1].delivered, 3u);
  EXPECT_EQ(stats[1].dropped, 3u);
  EXPECT_EQ(stats[1].exceptions, 3u);
  EXPECT_EQ(stats[0].exceptions, 0u);
}

TEST(ReadingPipeline, ThrowingCycleEndIsIsolatedToo) {
  ReadingPipeline pipeline;
  auto bomb = std::make_shared<ThrowingSink>("bomb");
  auto witness = std::make_shared<CountingSink>("witness");
  pipeline.add_sink(bomb);
  pipeline.add_sink(witness);

  CycleReport report;
  pipeline.end_cycle(report);  // Must not propagate the exception.
  EXPECT_EQ(witness->cycles_, 1u);
  EXPECT_EQ(pipeline.stats()[0].exceptions, 1u);
}

TEST(ReadingPipeline, AddRejectsNullAndDuplicateNames) {
  ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<CountingSink>("a"));
  EXPECT_THROW(pipeline.add_sink(nullptr), std::invalid_argument);
  EXPECT_THROW(pipeline.add_sink(std::make_shared<CountingSink>("a")),
               std::invalid_argument);
}

TEST(ReadingPipeline, SetSinkReplacesByNamePreservingOrder) {
  ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<CountingSink>("a"));
  pipeline.add_sink(std::make_shared<CountingSink>("b"));
  auto replacement = std::make_shared<CountingSink>("a");
  pipeline.set_sink(replacement);
  EXPECT_EQ(pipeline.sink_count(), 2u);
  EXPECT_EQ(pipeline.find("a"), replacement.get());
  EXPECT_EQ(pipeline.stats()[0].name, "a");  // still first

  pipeline.set_sink(std::make_shared<CountingSink>("c"));  // appends
  EXPECT_EQ(pipeline.sink_count(), 3u);
}

TEST(ReadingPipeline, RemoveSinkAndFind) {
  ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<CountingSink>("a"));
  EXPECT_NE(pipeline.find("a"), nullptr);
  EXPECT_TRUE(pipeline.remove_sink("a"));
  EXPECT_FALSE(pipeline.remove_sink("a"));
  EXPECT_EQ(pipeline.find("a"), nullptr);
  EXPECT_EQ(pipeline.sink_count(), 0u);
}

TEST(ReadingPipeline, EndCycleReachesEverySink) {
  ReadingPipeline pipeline;
  auto sink = std::make_shared<CountingSink>("s");
  pipeline.add_sink(sink);
  CycleReport report;
  pipeline.end_cycle(report);
  pipeline.end_cycle(report);
  EXPECT_EQ(sink->cycles_, 2u);
}

TEST(ReadingPipeline, FakeClockMakesDispatchLatencyExact) {
  // Each batch brackets its sink calls with two clock reads; with one
  // reading per batch an auto-step fake charges exactly one step per sink
  // per reading.
  util::FakeWallClock clock(/*auto_step=*/0.25);
  ReadingPipeline pipeline;
  pipeline.set_wall_clock(clock);
  auto taker = std::make_shared<CountingSink>("taker");
  auto refuser = std::make_shared<CountingSink>("refuser", /*accept=*/false);
  pipeline.add_sink(taker);
  pipeline.add_sink(refuser);

  for (int i = 0; i < 4; ++i) {
    pipeline.dispatch_batch({make_reading(static_cast<std::uint64_t>(i))}, {});
  }

  const auto stats = pipeline.stats();
  EXPECT_DOUBLE_EQ(stats[0].dispatch_seconds, 4 * 0.25);
  EXPECT_DOUBLE_EQ(stats[1].dispatch_seconds, 4 * 0.25);
  // Declined readings still cost dispatch time: mean is over both.
  EXPECT_DOUBLE_EQ(stats[0].mean_dispatch_us(), 0.25 * 1e6);
  EXPECT_DOUBLE_EQ(stats[1].mean_dispatch_us(), 0.25 * 1e6);
}

TEST(ReadingPipeline, ThrowingSinkStillChargesDispatchTime) {
  util::FakeWallClock clock(/*auto_step=*/0.5);
  ReadingPipeline pipeline;
  pipeline.set_wall_clock(clock);
  pipeline.add_sink(std::make_shared<ThrowingSink>("bomb"));
  pipeline.dispatch_batch({make_reading()}, {});
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats[0].exceptions, 1u);
  EXPECT_DOUBLE_EQ(stats[0].dispatch_seconds, 0.5);
}

// ------------------------------------------------------- batch dispatch

std::vector<rf::TagReading> make_batch(std::size_t n) {
  std::vector<rf::TagReading> batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(make_reading(i * 100));
  }
  return batch;
}

TEST(ReadingPipeline, BatchDispatchThrowingSinkLosesOnlyItsOwnReadings) {
  ReadingPipeline pipeline;
  auto before = std::make_shared<CountingSink>("before");
  auto bomb = std::make_shared<ThrowingSink>("bomb", /*every=*/2);
  auto after = std::make_shared<CountingSink>("after");
  pipeline.add_sink(before);
  pipeline.add_sink(bomb);
  pipeline.add_sink(after);

  pipeline.dispatch_batch(make_batch(6), {});

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats[0].delivered, 6u);
  EXPECT_EQ(stats[2].delivered, 6u);
  EXPECT_EQ(after->seen_, 6u);
  EXPECT_EQ(stats[1].delivered, 3u);
  EXPECT_EQ(stats[1].dropped, 3u);
  EXPECT_EQ(stats[1].exceptions, 3u);
}

TEST(ReadingPipeline, BatchDispatchClockChargingIsExact) {
  // One clock-pair per sink per non-empty batch under a FakeWallClock:
  // dispatch_seconds is exactly one auto-step regardless of batch size.
  ReadingPipeline pipeline;
  util::FakeWallClock clock(/*auto_step=*/0.25);
  pipeline.set_wall_clock(clock);
  pipeline.add_sink(std::make_shared<CountingSink>("a"));
  pipeline.add_sink(std::make_shared<CountingSink>("b"));

  pipeline.dispatch_batch(make_batch(100), {});
  pipeline.dispatch_batch({}, {});  // Empty: no charge, no batch counted.
  pipeline.dispatch_batch(make_batch(1), {});

  for (const auto& stats : pipeline.stats()) {
    SCOPED_TRACE(stats.name);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_DOUBLE_EQ(stats.dispatch_seconds, 0.5);
    EXPECT_EQ(stats.delivered, 101u);
  }
  EXPECT_EQ(pipeline.dispatched_total(), 101u);
}

// ----------------------------------------------------- per-source stats

TEST(ReadingPipeline, StatsSplitPerSourceInFirstSeenOrder) {
  ReadingPipeline pipeline;
  auto sink = std::make_shared<CountingSink>("s");
  pipeline.add_sink(sink);

  // Source 2 dispatches before source 0 ever shows up explicitly; the
  // source-0 row still leads (it is created with the sink), then sources
  // appear in first-seen order.
  pipeline.dispatch_batch({make_reading()},
                          {0, ReadPhase::kPhase1, /*source_id=*/2});
  pipeline.dispatch_batch({make_reading()},
                          {0, ReadPhase::kPhase1, /*source_id=*/0});
  pipeline.dispatch_batch({make_reading()},
                          {0, ReadPhase::kPhase2, /*source_id=*/2});
  pipeline.dispatch_batch({make_reading()},
                          {0, ReadPhase::kPhase1, /*source_id=*/1});

  const auto stats = pipeline.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].source_id, 0u);
  EXPECT_EQ(stats[1].source_id, 2u);
  EXPECT_EQ(stats[2].source_id, 1u);
  EXPECT_EQ(stats[0].delivered, 1u);
  EXPECT_EQ(stats[1].delivered, 2u);
  EXPECT_EQ(stats[2].delivered, 1u);
  for (const auto& s : stats) EXPECT_EQ(s.name, "s");
  EXPECT_EQ(sink->seen_, 4u);
  EXPECT_EQ(pipeline.dispatched_total(), 4u);
}

TEST(ReadingPipeline, SingleSourcePipelinesKeepTheLegacyStatsShape) {
  // Source attribution must be invisible until a second source exists:
  // one row per sink, source 0, exactly as before the fleet refactor.
  ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<CountingSink>("a"));
  pipeline.add_sink(std::make_shared<CountingSink>("b"));
  pipeline.dispatch_batch(make_batch(7), {});
  const auto stats = pipeline.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[1].name, "b");
  EXPECT_EQ(stats[0].source_id, 0u);
  EXPECT_EQ(stats[1].source_id, 0u);
  EXPECT_EQ(stats[0].delivered, 7u);
}

TEST(ReadingPipeline, PerSourceRowsAccountDropsAndExceptionsSeparately) {
  ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<ThrowingSink>("bomb", /*every=*/1));
  pipeline.dispatch_batch(make_batch(3), {0, ReadPhase::kPhase1, 0});
  pipeline.dispatch_batch(make_batch(2), {0, ReadPhase::kPhase1, 1});
  const auto stats = pipeline.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].source_id, 0u);
  EXPECT_EQ(stats[0].dropped, 3u);
  EXPECT_EQ(stats[0].exceptions, 3u);
  EXPECT_EQ(stats[1].source_id, 1u);
  EXPECT_EQ(stats[1].dropped, 2u);
  EXPECT_EQ(stats[1].exceptions, 2u);

  // Cycle-end throws have no source: they accrue to the source-0 row.
  CycleReport report;
  pipeline.end_cycle(report);
  EXPECT_EQ(pipeline.stats()[0].exceptions, 4u);
  EXPECT_EQ(pipeline.stats()[1].exceptions, 2u);
}

// ------------------------------------------------- controller integration

struct PipelineBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, 5, 0}, 8.0}};
  std::optional<llrp::SimReaderClient> client;

  explicit PipelineBed(std::size_t n_tags, std::size_t n_movers = 1,
                       std::uint64_t seed = 77) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::random(rng);
      if (i < n_movers) {
        t.motion = std::make_shared<sim::CircularTrack>(
            util::Vec3{0.5, 0.5, 0}, 0.2, 0.7, static_cast<double>(i));
      } else {
        t.motion = std::make_shared<sim::StaticMotion>(
            util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      }
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    client.emplace(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                   gen2::ReaderConfig{}, world, channel, antennas, seed + 1);
  }
};

TEST(PipelineMetrics, PerSinkCountsSumToBothPhasesReadings) {
  PipelineBed bed(15);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::sec(1);
  TagwatchController ctl(cfg, *bed.client);
  std::size_t app_readings = 0;
  ctl.set_read_listener(
      [&app_readings](const rf::TagReading&) { ++app_readings; });
  const std::shared_ptr<PipelineMetrics> metrics = attach_metrics(ctl);

  std::uint64_t phase1 = 0, phase2 = 0;
  for (const auto& r : ctl.run_cycles(4)) {
    phase1 += r.phase1_readings;
    phase2 += r.phase2_readings;
  }

  const PipelineMetricsSnapshot snap = metrics->snapshot();
  EXPECT_EQ(snap.phase1_readings, phase1);
  EXPECT_EQ(snap.phase2_readings, phase2);
  EXPECT_EQ(snap.readings_total(), phase1 + phase2);
  EXPECT_EQ(snap.cycles, 4u);
  ASSERT_EQ(snap.per_cycle.size(), 4u);

  // The acceptance criterion: every sink saw every reading — per-sink
  // delivered + dropped sums to phase1_readings + phase2_readings.
  ASSERT_EQ(snap.sinks.size(), 4u);  // assessor, history, app, metrics
  for (const auto& sink : snap.sinks) {
    SCOPED_TRACE(sink.name);
    EXPECT_EQ(sink.delivered + sink.dropped, snap.readings_total());
    EXPECT_EQ(sink.dropped, 0u);
  }
  EXPECT_EQ(app_readings, snap.readings_total());
  EXPECT_EQ(ctl.pipeline().dispatched_total(), snap.readings_total());
}

TEST(PipelineMetrics, AggregatesSlotAndSceneStatistics) {
  PipelineBed bed(12, 1, 91);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(500);
  TagwatchController ctl(cfg, *bed.client);
  const auto metrics = attach_metrics(ctl);
  const auto reports = ctl.run_cycles(3);

  gen2::RoundStats expected;
  std::uint64_t fallbacks = 0;
  for (const auto& r : reports) {
    expected += r.slot_totals;
    if (r.read_all_fallback) ++fallbacks;
  }
  const PipelineMetricsSnapshot snap = metrics->snapshot();
  EXPECT_EQ(snap.slot_totals.slots, expected.slots);
  EXPECT_EQ(snap.slot_totals.success_slots, expected.success_slots);
  EXPECT_EQ(snap.read_all_cycles, fallbacks);
  EXPECT_GT(snap.mean_scene, 0.0);
  EXPECT_GT(snap.mean_targets, 0.0);
  EXPECT_GT(snap.mean_interphase_gap_ms, 0.0);
}

TEST(PipelineMetrics, SnapshotWithoutObserveHasNoSinkStats) {
  PipelineMetrics metrics;
  metrics.on_reading(make_reading(), {0, ReadPhase::kPhase1});
  const PipelineMetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.phase1_readings, 1u);
  EXPECT_TRUE(snap.sinks.empty());
  EXPECT_EQ(snap.cycles, 0u);  // no cycle boundary seen yet
}

TEST(TagwatchController, SetReadListenerInstallsAndRemovesAppSink) {
  PipelineBed bed(5, 0, 13);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(200);
  TagwatchController ctl(cfg, *bed.client);
  EXPECT_EQ(ctl.pipeline().sink_count(), 2u);  // assessor + history
  ctl.set_read_listener([](const rf::TagReading&) {});
  EXPECT_EQ(ctl.pipeline().sink_count(), 3u);
  EXPECT_NE(ctl.pipeline().find("app"), nullptr);
  ctl.set_read_listener(nullptr);
  EXPECT_EQ(ctl.pipeline().find("app"), nullptr);
  EXPECT_EQ(ctl.pipeline().sink_count(), 2u);
}

TEST(TagwatchController, CustomSinkReceivesCycleEndNotifications) {
  PipelineBed bed(6, 0, 17);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(200);
  TagwatchController ctl(cfg, *bed.client);
  auto probe = std::make_shared<CountingSink>("probe");
  ctl.pipeline().add_sink(probe);
  const auto reports = ctl.run_cycles(2);
  EXPECT_EQ(probe->cycles_, 2u);
  EXPECT_EQ(probe->seen_,
            reports[0].phase1_readings + reports[0].phase2_readings +
                reports[1].phase1_readings + reports[1].phase2_readings);
}

TEST(TagwatchController, FakeWallClockMakesComputeTimingExact) {
  PipelineBed bed(10, 1, 23);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(300);
  // 2 ms per clock read: the assessment+scheduling block reads the clock
  // exactly twice, so every cycle reports exactly 2 ms of compute.
  util::FakeWallClock clock(/*auto_step=*/0.002);
  cfg.wall_clock = &clock;
  cfg.charge_compute_time = false;
  TagwatchController ctl(cfg, *bed.client);

  for (const auto& r : ctl.run_cycles(3)) {
    EXPECT_DOUBLE_EQ(r.schedule_compute_ms, 2.0);
  }

  // The controller's clock also drives the pipeline: deliveries arrive in
  // batches, and each non-empty batch charges exactly one clock-pair (one
  // step) per sink regardless of how many readings it carries.
  // (NEAR, not DOUBLE_EQ: 0.002 is not exactly representable, so summing
  // clock deltas accumulates ulps.)
  for (const auto& stats : ctl.pipeline().stats()) {
    SCOPED_TRACE(stats.name);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_NEAR(stats.dispatch_seconds,
                0.002 * static_cast<double>(stats.batches), 1e-9);
  }
}

TEST(TagwatchController, AssessorThreadCountIsObservationallyInvisible) {
  // The whole point of the parallel ingestion engine: any thread count
  // yields byte-identical cycles.  Same world seed, different
  // assessor_threads — every report field that feeds scheduling, metrics,
  // or the journal must match exactly.
  std::vector<std::vector<CycleReport>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PipelineBed bed(24, 3, 91);
    TagwatchConfig cfg;
    cfg.phase2_duration = util::msec(250);
    cfg.assessor_threads = threads;
    // Real host-clock readings would charge run-to-run-varying compute
    // time onto the simulated timeline; a fake clock keeps both runs on
    // identical footing so any mismatch is the thread count's fault.
    util::FakeWallClock clock(/*auto_step=*/0.001);
    cfg.wall_clock = &clock;
    TagwatchController ctl(cfg, *bed.client);
    runs.push_back(ctl.run_cycles(3));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t c = 0; c < runs[0].size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    const CycleReport& a = runs[0][c];
    const CycleReport& b = runs[1][c];
    EXPECT_EQ(b.scene, a.scene);
    EXPECT_EQ(b.mobile, a.mobile);
    EXPECT_EQ(b.targets, a.targets);
    EXPECT_EQ(b.read_all_fallback, a.read_all_fallback);
    EXPECT_EQ(b.phase1_readings, a.phase1_readings);
    EXPECT_EQ(b.phase2_readings, a.phase2_readings);
    EXPECT_EQ(b.phase1_duration, a.phase1_duration);
    EXPECT_EQ(b.phase2_duration, a.phase2_duration);
    EXPECT_EQ(b.interphase_gap, a.interphase_gap);
    EXPECT_EQ(b.phase2_counts, a.phase2_counts);
    EXPECT_EQ(b.slot_totals.slots, a.slot_totals.slots);
    EXPECT_EQ(b.slot_totals.duration, a.slot_totals.duration);
  }
}

TEST(TagwatchController, ChargedComputeTimeReachesTheReaderClock) {
  PipelineBed bed(8, 1, 29);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(200);
  util::FakeWallClock clock(/*auto_step=*/0.004);
  cfg.wall_clock = &clock;
  cfg.charge_compute_time = true;
  TagwatchController ctl(cfg, *bed.client);
  const CycleReport r = ctl.run_cycle();
  EXPECT_DOUBLE_EQ(r.schedule_compute_ms, 4.0);
  // 4 ms of host compute was charged onto the simulated timeline between
  // the phases, so the inter-phase gap must be at least that long.
  ASSERT_TRUE(r.interphase_gap.has_value());
  EXPECT_GE(*r.interphase_gap, util::msec(4));
}

TEST(TagwatchController, CycleSurvivesAThrowingApplicationSink) {
  PipelineBed bed(8, 1, 19);
  TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(300);
  TagwatchController ctl(cfg, *bed.client);
  ctl.pipeline().add_sink(std::make_shared<ThrowingSink>("bomb"));

  const CycleReport r = ctl.run_cycle();  // Must not throw.
  EXPECT_GT(r.phase1_readings + r.phase2_readings, 0u);

  // Built-in sinks kept every reading; the bomb dropped all of its own.
  for (const auto& stats : ctl.pipeline().stats()) {
    SCOPED_TRACE(stats.name);
    if (stats.name == "bomb") {
      EXPECT_EQ(stats.delivered, 0u);
      // Every reading threw, plus one on_cycle_end throw.
      EXPECT_EQ(stats.exceptions, stats.dropped + 1);
      EXPECT_GT(stats.dropped, 0u);
    } else {
      EXPECT_EQ(stats.dropped, 0u);
    }
  }
}

}  // namespace
}  // namespace tagwatch::core
