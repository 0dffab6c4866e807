// TagwatchController resilience: retry with backoff on the reader clock,
// partial-report salvage, antenna quarantine, the degraded read-all state
// machine, the per-cycle watchdog, and bit-exact replay of faulty runs.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/tagwatch.hpp"
#include "llrp/fault_injection.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

namespace tagwatch::core {
namespace {

/// Sim world + fault injector + (optional) recorder, ready for a controller.
struct ResilienceBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, 5, 0}, 8.0}};
  std::optional<llrp::SimReaderClient> sim;
  std::optional<llrp::FaultInjectingReaderClient> faulty;
  std::optional<llrp::RecordingReaderClient> recorder;

  explicit ResilienceBed(llrp::FaultPlan plan, std::size_t n_tags = 12,
                         std::size_t n_movers = 1, std::uint64_t seed = 33,
                         bool record = false) {
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
    sim.emplace(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                gen2::ReaderConfig{}, world, channel, antennas, seed + 1);
    faulty.emplace(*sim, std::move(plan));
    if (record) recorder.emplace(*faulty);
  }

  llrp::ReaderClient& client() {
    return recorder ? static_cast<llrp::ReaderClient&>(*recorder)
                    : static_cast<llrp::ReaderClient&>(*faulty);
  }
};

/// Short cycles, no jitter: backoff charges are exactly the policy values.
TagwatchConfig exact_config() {
  TagwatchConfig cfg;
  cfg.phase2_duration = util::sec(1);
  cfg.resilience.retry.jitter_fraction = 0.0;
  return cfg;
}

TEST(Resilience, RetriesRecoverFromTransientTimeouts) {
  // Execute #0 is Phase I; fail it once, succeed on the retry.
  llrp::FaultPlan plan;
  plan.scripted = {{0, llrp::ReaderErrorKind::kTimeout, 0}};
  ResilienceBed bed(plan);
  TagwatchController ctl(exact_config(), bed.client());

  const CycleReport r = ctl.run_cycle();
  EXPECT_EQ(r.execute_failures, 1u);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.backoff_time, util::msec(20));  // initial_backoff, no jitter.
  // The retried Phase I still produced a scene.
  EXPECT_GT(r.scene.size(), 0u);
  EXPECT_EQ(ctl.health().timeouts, 1u);
  EXPECT_EQ(ctl.health().retries, 1u);
  EXPECT_EQ(ctl.health().giveups, 0u);
  EXPECT_EQ(ctl.health().backoff_total, util::msec(20));
  EXPECT_FALSE(ctl.degraded());
}

TEST(Resilience, BackoffGrowsExponentiallyAndIsChargedToTheReaderClock) {
  // Fail the first two attempts of Phase I: waits are 20 ms then 40 ms.
  llrp::FaultPlan plan;
  plan.scripted = {{0, llrp::ReaderErrorKind::kTimeout, 0},
                   {1, llrp::ReaderErrorKind::kProtocolError, 0}};
  ResilienceBed bed(plan, 12, 1, 33, /*record=*/true);
  TagwatchController ctl(exact_config(), bed.client());

  const CycleReport r = ctl.run_cycle();
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(r.backoff_time, util::msec(60));
  EXPECT_EQ(ctl.health().timeouts, 1u);
  EXPECT_EQ(ctl.health().protocol_errors, 1u);

  // The waits went through ReaderClient::advance(), so they are journaled:
  // that is what "charged to the reader clock" means, and what makes the
  // recording replayable.
  std::vector<util::SimDuration> advances;
  for (const llrp::JournalEntry& e : bed.recorder->journal().entries()) {
    if (e.kind == llrp::JournalEntry::Kind::kAdvance) {
      advances.push_back(e.advance);
    }
  }
  ASSERT_GE(advances.size(), 2u);
  EXPECT_EQ(advances[0], util::msec(20));
  EXPECT_EQ(advances[1], util::msec(40));
}

TEST(Resilience, BackoffIsCappedAtMaxBackoff) {
  llrp::FaultPlan plan;
  for (std::size_t i = 0; i < 5; ++i) {
    plan.scripted.push_back({i, llrp::ReaderErrorKind::kTimeout, 0});
  }
  ResilienceBed bed(plan);
  TagwatchConfig cfg = exact_config();
  cfg.resilience.retry.max_attempts = 6;
  cfg.resilience.retry.initial_backoff = util::msec(100);
  cfg.resilience.retry.max_backoff = util::msec(250);
  TagwatchController ctl(cfg, bed.client());

  const CycleReport r = ctl.run_cycle();
  // Waits: 100, 200, 250, 250, 250 (capped).
  EXPECT_EQ(r.retries, 5u);
  EXPECT_EQ(r.backoff_time, util::msec(1050));
}

TEST(Resilience, PartialReportSalvagesWithoutRetrying) {
  llrp::FaultPlan plan;
  plan.scripted = {{0, llrp::ReaderErrorKind::kPartialReport, 0}};
  plan.failure_keep_fraction = 0.5;
  ResilienceBed bed(plan);
  TagwatchController ctl(exact_config(), bed.client());

  const CycleReport r = ctl.run_cycle();
  // The partial's salvage became the Phase I scene — no retry, no giveup.
  EXPECT_EQ(r.retries, 0u);
  EXPECT_GT(r.salvaged_readings, 0u);
  EXPECT_GT(r.scene.size(), 0u);
  EXPECT_EQ(ctl.health().partial_reports, 1u);
  EXPECT_EQ(ctl.health().partial_salvages, 1u);
  EXPECT_EQ(ctl.health().salvaged_readings, r.salvaged_readings);
  EXPECT_EQ(ctl.health().giveups, 0u);
}

TEST(Resilience, LostAntennaIsQuarantinedOutOfRospecConstruction) {
  llrp::FaultPlan plan;
  plan.scripted = {{0, llrp::ReaderErrorKind::kAntennaLost, 1}};
  ResilienceBed bed(plan);
  TagwatchController ctl(exact_config(), bed.client());

  const CycleReport first = ctl.run_cycle();
  EXPECT_EQ(ctl.health().antenna_losses, 1u);
  EXPECT_TRUE(ctl.quarantined_antennas().contains(1));
  EXPECT_EQ(first.quarantined_antennas, (std::vector<std::size_t>{1}));
  EXPECT_EQ(ctl.health().quarantined_antennas, 1u);
  // The immediate re-issue on the surviving port recovered the cycle.
  EXPECT_GT(first.scene.size(), 0u);
  EXPECT_EQ(ctl.health().giveups, 0u);

  // Later cycles never drive the dead port again: no more antenna faults.
  ctl.run_cycles(2);
  EXPECT_EQ(ctl.health().antenna_losses, 1u);
  EXPECT_EQ(bed.faulty->stats().injected_antenna_losses, 1u);
}

TEST(Resilience, ConsecutivePhase2FailuresDegradeThenHealthyCyclesRestore) {
  // Everything fails, with nothing salvageable, until the plan runs dry.
  llrp::FaultPlan plan;
  plan.execute_failure_probability = 1.0;
  plan.failure_keep_fraction = 0.0;
  ResilienceBed bed(plan);
  TagwatchConfig cfg = exact_config();
  cfg.resilience.degrade_after_failures = 2;  // K
  cfg.resilience.restore_after_healthy = 3;   // M
  TagwatchController ctl(cfg, bed.client());

  // K = 2 failing cycles: not degraded after the first, degraded after the
  // second.
  const CycleReport f1 = ctl.run_cycle();
  EXPECT_FALSE(f1.degraded_mode);
  EXPECT_FALSE(ctl.degraded());
  const CycleReport f2 = ctl.run_cycle();
  EXPECT_FALSE(f2.degraded_mode);  // Degradation applies from the NEXT cycle.
  EXPECT_TRUE(ctl.degraded());
  EXPECT_EQ(ctl.health().degraded_entries, 1u);

  // Reader heals: M healthy degraded cycles, then adaptive mode resumes.
  bed.faulty.emplace(*bed.sim, llrp::FaultPlan{});  // No more faults.
  const CycleReport d1 = ctl.run_cycle();
  EXPECT_TRUE(d1.degraded_mode);
  EXPECT_TRUE(d1.read_all_fallback);
  const CycleReport d2 = ctl.run_cycle();
  EXPECT_TRUE(d2.degraded_mode);
  const CycleReport d3 = ctl.run_cycle();
  EXPECT_TRUE(d3.degraded_mode);
  EXPECT_FALSE(ctl.degraded());  // Restored at the end of the M-th cycle.
  EXPECT_EQ(ctl.health().degraded_exits, 1u);
  EXPECT_EQ(ctl.health().degraded_cycles, 3u);

  const CycleReport back = ctl.run_cycle();
  EXPECT_FALSE(back.degraded_mode);
}

TEST(Resilience, WatchdogBudgetCutsACycleShort) {
  ResilienceBed bed(llrp::FaultPlan{});
  TagwatchConfig cfg = exact_config();
  cfg.phase2_duration = util::sec(30);
  cfg.resilience.cycle_watchdog_budget = util::msec(500);
  TagwatchController ctl(cfg, bed.client());

  const util::SimTime start = ctl.now();
  const CycleReport r = ctl.run_cycle();
  EXPECT_TRUE(r.watchdog_tripped);
  EXPECT_EQ(ctl.health().watchdog_trips, 1u);
  // The cycle ended within the budget plus one in-flight operation.
  EXPECT_LT(ctl.now() - start, util::sec(2));
}

TEST(Resilience, HealthCountersMatchTheInjectedSchedule) {
  llrp::FaultPlan plan;
  plan.seed = 11;
  plan.execute_failure_probability = 0.15;
  plan.weight_timeout = 1.0;
  plan.weight_disconnect = 0.5;
  plan.weight_protocol_error = 0.5;
  plan.weight_partial_report = 0.5;
  ResilienceBed bed(plan);
  TagwatchController ctl(exact_config(), bed.client());
  ctl.run_cycles(4);

  const llrp::InjectionStats& injected = bed.faulty->stats();
  const HealthMetrics& seen = ctl.health();
  EXPECT_GT(injected.injected_faults_total(), 0u);
  // Every injected fault surfaced exactly once in the controller's counts.
  EXPECT_EQ(seen.timeouts, injected.injected_timeouts);
  EXPECT_EQ(seen.disconnects, injected.injected_disconnects);
  EXPECT_EQ(seen.protocol_errors, injected.injected_protocol_errors);
  EXPECT_EQ(seen.partial_reports, injected.injected_partial_reports);
  EXPECT_EQ(seen.faults_total(), injected.injected_faults_total());
}

TEST(Resilience, FaultyRunRecordsAndReplaysBitExactly) {
  llrp::FaultPlan plan;
  plan.seed = 5;
  plan.execute_failure_probability = 0.2;
  plan.weight_disconnect = 0.5;
  plan.weight_partial_report = 0.5;
  plan.reading_drop_rate = 0.05;
  plan.phase_corruption_rate = 0.1;
  TagwatchConfig cfg;  // Jitter ON: replay must reproduce the draws too.
  cfg.phase2_duration = util::sec(1);

  ResilienceBed bed(plan, 12, 1, 33, /*record=*/true);
  TagwatchController live(cfg, bed.client());
  const auto recorded = live.run_cycles(5);
  ASSERT_GT(live.health().faults_total(), 0u);

  const llrp::ReaderJournal journal =
      llrp::ReaderJournal::from_csv(bed.recorder->journal().to_csv());
  llrp::ReplayReaderClient replay(journal);
  TagwatchController ctl(cfg, replay);
  const auto replayed = ctl.run_cycles(5);

  ASSERT_EQ(replayed.size(), recorded.size());
  for (std::size_t c = 0; c < recorded.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    EXPECT_EQ(replayed[c].scene, recorded[c].scene);
    EXPECT_EQ(replayed[c].phase1_readings, recorded[c].phase1_readings);
    EXPECT_EQ(replayed[c].phase2_readings, recorded[c].phase2_readings);
    EXPECT_EQ(replayed[c].execute_failures, recorded[c].execute_failures);
    EXPECT_EQ(replayed[c].retries, recorded[c].retries);
    EXPECT_EQ(replayed[c].backoff_time, recorded[c].backoff_time);
    EXPECT_EQ(replayed[c].salvaged_readings, recorded[c].salvaged_readings);
    EXPECT_EQ(replayed[c].degraded_mode, recorded[c].degraded_mode);
    EXPECT_EQ(replayed[c].phase1_duration, recorded[c].phase1_duration);
    EXPECT_EQ(replayed[c].phase2_duration, recorded[c].phase2_duration);
  }
  // The cumulative health metrics agree counter for counter.
  const HealthMetrics& a = live.health();
  const HealthMetrics& b = ctl.health();
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.disconnects, b.disconnects);
  EXPECT_EQ(a.protocol_errors, b.protocol_errors);
  EXPECT_EQ(a.partial_reports, b.partial_reports);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.giveups, b.giveups);
  EXPECT_EQ(a.backoff_total, b.backoff_total);
  EXPECT_EQ(a.salvaged_readings, b.salvaged_readings);
  EXPECT_EQ(a.degraded_entries, b.degraded_entries);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
}

TEST(Resilience, HealthMetricsFlowIntoPipelineMetrics) {
  llrp::FaultPlan plan;
  plan.scripted = {{0, llrp::ReaderErrorKind::kTimeout, 0}};
  ResilienceBed bed(plan);
  TagwatchController ctl(exact_config(), bed.client());
  const std::vector<CycleReport> reports = ctl.run_cycles(2);

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].execute_failures, 1u);
  EXPECT_EQ(reports[0].retries, 1u);
  EXPECT_EQ(reports[1].execute_failures, 0u);
  // Each report carries the cumulative health as of its cycle's end.
  for (const CycleReport& r : reports) {
    EXPECT_FALSE(r.degraded_mode);
    EXPECT_EQ(r.health.timeouts, 1u);
    EXPECT_EQ(r.health.retries, 1u);
  }
  EXPECT_EQ(ctl.health().degraded_cycles, 0u);
  // Every sink saw every reading of both cycles, the retried one included.
  for (const SinkStats& sink : ctl.pipeline().stats()) {
    SCOPED_TRACE(sink.name);
    EXPECT_EQ(sink.delivered,
              reports[0].phase1_readings + reports[0].phase2_readings +
                  reports[1].phase1_readings + reports[1].phase2_readings);
  }
}

}  // namespace
}  // namespace tagwatch::core
