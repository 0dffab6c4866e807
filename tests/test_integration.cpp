// Integration tests: the full two-phase Tagwatch loop over the simulated
// reader, RF channel, and world.
#include <gtest/gtest.h>

#include "core/tagwatch.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

namespace tagwatch::core {
namespace {

struct Testbed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, -5, 0}, 8.0},
                                    {3, {-5, 5, 0}, 8.0},
                                    {4, {5, 5, 0}, 8.0}};
  std::vector<util::Epc> mover_epcs;
  std::optional<llrp::SimReaderClient> client;

  Testbed(std::size_t n_tags, std::size_t n_movers, std::uint64_t seed = 11) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::random(rng);
      if (i < n_movers) {
        t.motion = std::make_shared<sim::CircularTrack>(
            util::Vec3{0.5, 0.5, 0}, 0.2, 0.7, static_cast<double>(i));
        mover_epcs.push_back(t.epc);
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

  bool is_mover(const util::Epc& epc) const {
    for (const auto& m : mover_epcs) {
      if (m == epc) return true;
    }
    return false;
  }
};

TagwatchConfig test_config() {
  TagwatchConfig cfg;
  cfg.phase2_duration = util::sec(2);  // shorter cycles keep tests fast
  return cfg;
}

TEST(TagwatchIntegration, ColdStartFallsBackToReadAll) {
  Testbed bed(20, 1);
  TagwatchController ctl(test_config(), *bed.client);
  const CycleReport first = ctl.run_cycle();
  // Cycle 0: every tag is new, hence presumed mobile → fraction over the
  // threshold → read-all fallback (§3 "Scope").
  EXPECT_TRUE(first.read_all_fallback);
  EXPECT_GT(first.phase1_readings, 0u);
  EXPECT_GT(first.phase2_readings, 0u);
}

TEST(TagwatchIntegration, ConvergesToSelectiveReading) {
  Testbed bed(30, 2);
  TagwatchController ctl(test_config(), *bed.client);
  const auto reports = ctl.run_cycles(10);
  const CycleReport& late = reports.back();
  EXPECT_FALSE(late.read_all_fallback);
  // Assessment has converged onto exactly the movers.
  ASSERT_EQ(late.targets.size(), 2u);
  for (const auto& t : late.targets) EXPECT_TRUE(bed.is_mover(t));
  EXPECT_FALSE(late.schedule.selections.empty());
}

TEST(TagwatchIntegration, MoversGainOverReadAll) {
  // The headline mechanism: movers' Phase II IRR beats the read-all IRR.
  auto measure = [](ScheduleMode mode) {
    Testbed bed(40, 2, 77);
    TagwatchConfig cfg = test_config();
    cfg.mode = mode;
    TagwatchController ctl(cfg, *bed.client);
    const auto reports = ctl.run_cycles(10);
    double mover_reads = 0.0, secs = 0.0;
    for (std::size_t c = 5; c < reports.size(); ++c) {
      secs += util::to_seconds(reports[c].phase2_duration);
      for (const auto& [epc, count] : reports[c].phase2_counts) {
        if (bed.is_mover(epc)) mover_reads += static_cast<double>(count);
      }
    }
    return mover_reads / 2.0 / secs;
  };
  const double read_all = measure(ScheduleMode::kReadAll);
  const double tagwatch = measure(ScheduleMode::kGreedyCover);
  const double naive = measure(ScheduleMode::kNaiveEpcMasks);
  EXPECT_GT(tagwatch, read_all * 2.0);  // paper: ~3.6× for 2/40
  EXPECT_GT(naive, read_all);           // naive also helps at 2/40
  EXPECT_GT(tagwatch, naive);           // but set cover beats it
}

TEST(TagwatchIntegration, PinnedTargetsAlwaysScheduled) {
  Testbed bed(25, 0);  // nothing moves
  TagwatchConfig cfg = test_config();
  cfg.pinned_targets = {bed.world.tags()[3].epc, bed.world.tags()[7].epc};
  TagwatchController ctl(cfg, *bed.client);
  const auto reports = ctl.run_cycles(8);
  const CycleReport& late = reports.back();
  EXPECT_FALSE(late.read_all_fallback);
  ASSERT_EQ(late.targets.size(), 2u);
  // Pinned tags are read intensively even though stationary.
  std::size_t pinned_reads = 0;
  for (const auto& [epc, count] : late.phase2_counts) {
    if (epc == cfg.pinned_targets[0] || epc == cfg.pinned_targets[1]) {
      pinned_reads += count;
    }
  }
  EXPECT_GT(pinned_reads, 20u);
}

TEST(TagwatchIntegration, NoTargetsFallsBackToReadAll) {
  Testbed bed(15, 0);
  TagwatchController ctl(test_config(), *bed.client);
  const auto reports = ctl.run_cycles(8);
  const CycleReport& late = reports.back();
  // With nothing moving and nothing pinned, Phase II reads everything.
  EXPECT_TRUE(late.read_all_fallback);
  EXPECT_GT(late.phase2_counts.size(), 10u);
}

TEST(TagwatchIntegration, HighMobileFractionFallsBack) {
  Testbed bed(10, 5);  // 50% movers
  TagwatchController ctl(test_config(), *bed.client);
  const auto reports = ctl.run_cycles(6);
  EXPECT_TRUE(reports.back().read_all_fallback);
}

TEST(TagwatchIntegration, ReadingsFlowToApplication) {
  Testbed bed(10, 1);
  TagwatchController ctl(test_config(), *bed.client);
  std::size_t delivered = 0;
  ctl.set_read_listener([&delivered](const rf::TagReading&) { ++delivered; });
  const CycleReport report = ctl.run_cycle();
  EXPECT_EQ(delivered, report.phase1_readings + report.phase2_readings);
  EXPECT_EQ(ctl.history().total_readings(), delivered);
}

TEST(TagwatchIntegration, InterphaseGapIsSmall) {
  Testbed bed(30, 2);
  TagwatchController ctl(test_config(), *bed.client);
  const auto reports = ctl.run_cycles(8);
  const CycleReport& late = reports.back();
  ASSERT_TRUE(late.interphase_gap.has_value());
  // Fig. 17: the scheduling gap is tens of ms, minuscule next to the cycle.
  EXPECT_LT(*late.interphase_gap, util::msec(200));
  EXPECT_GT(late.interphase_gap->count(), 0);
  EXPECT_GE(late.schedule_compute_ms, 0.0);
}

TEST(TagwatchIntegration, StateTransitionIsReassessed) {
  // A tag that starts moving after a stationary period must be promoted to
  // target within a couple of cycles.
  Testbed bed(20, 0, 55);
  // Replace tag 4's motion: static until t=30 s, then a 5 cm step.
  const util::Epc stepper = bed.world.tags()[4].epc;
  bed.world.tags()[4].motion = std::make_shared<sim::StepDisplacement>(
      util::Vec3{1.0, 1.0, 0}, util::Vec3{0.05, 0, 0}, util::sec(30));
  TagwatchController ctl(test_config(), *bed.client);
  bool promoted_after_step = false;
  for (int i = 0; i < 20; ++i) {
    const CycleReport r = ctl.run_cycle();
    const bool stepped = ctl.now() > util::sec(30);
    const bool is_target =
        std::find(r.targets.begin(), r.targets.end(), stepper) !=
        r.targets.end();
    if (stepped && is_target) {
      promoted_after_step = true;
      break;
    }
  }
  EXPECT_TRUE(promoted_after_step);
}

TEST(TagwatchIntegration, TagEnteringMidRunIsAdopted) {
  Testbed bed(15, 1, 66);
  // A tag arrives at t = 20 s.
  sim::SimTag late_tag;
  util::Rng rng(5);
  late_tag.epc = util::Epc::random(rng);
  late_tag.motion =
      std::make_shared<sim::StaticMotion>(util::Vec3{0.5, -0.5, 0});
  late_tag.arrives = util::sec(20);
  late_tag.tag_phase_rad = 1.0;
  bed.world.add_tag(std::move(late_tag));
  const util::Epc late_epc = bed.world.tags().back().epc;

  TagwatchController ctl(test_config(), *bed.client);
  bool seen = false;
  for (int i = 0; i < 15 && !seen; ++i) {
    ctl.run_cycle();
    seen = ctl.history().find(late_epc) != nullptr;
  }
  EXPECT_TRUE(seen);
}

TEST(TagwatchIntegration, IncrementalPlannerMatchesFromScratchPipeline) {
  // Two identically-seeded testbeds, one controller planning from scratch
  // each cycle, one with the persistent cross-cycle planner: every cycle's
  // schedule must be bit-identical (cost doubles included).  Inputs: a
  // small scene, and the paper's E9 testbed (200 tags, 10 on the
  // turntable).
  struct Input {
    std::size_t tags;
    std::size_t movers;
    std::uint64_t seed;
  };
  for (const Input& in : {Input{30, 2, 77}, Input{200, 10, 2017}}) {
    SCOPED_TRACE(::testing::Message() << in.tags << " tags");
    Testbed bed_ref(in.tags, in.movers, in.seed);
    Testbed bed_inc(in.tags, in.movers, in.seed);
    TagwatchConfig cfg_ref = test_config();
    TagwatchConfig cfg_inc = test_config();
    cfg_ref.planner.incremental = false;
    cfg_inc.planner.incremental = true;
    cfg_inc.planner.churn_threshold = 0.25;
    // Scheduling compute runs on the host clock, so charging it would skew
    // the two simulations apart; keep the reader clocks in lockstep.
    cfg_ref.charge_compute_time = false;
    cfg_inc.charge_compute_time = false;
    TagwatchController ref(cfg_ref, *bed_ref.client);
    TagwatchController inc(cfg_inc, *bed_inc.client);
    EXPECT_EQ(inc.incremental_planner(), nullptr);

    std::size_t compared_selective = 0;
    for (int i = 0; i < 10; ++i) {
      const CycleReport a = ref.run_cycle();
      const CycleReport b = inc.run_cycle();
      ASSERT_EQ(a.scene, b.scene) << "cycle " << i;
      ASSERT_EQ(a.targets, b.targets) << "cycle " << i;
      EXPECT_EQ(a.read_all_fallback, b.read_all_fallback) << "cycle " << i;
      EXPECT_FALSE(a.planner_incremental);
      if (b.read_all_fallback) continue;
      ++compared_selective;
      EXPECT_TRUE(b.planner_incremental) << "cycle " << i;
      ASSERT_EQ(a.schedule.selections.size(), b.schedule.selections.size())
          << "cycle " << i;
      for (std::size_t s = 0; s < a.schedule.selections.size(); ++s) {
        EXPECT_EQ(a.schedule.selections[s].bitmask,
                  b.schedule.selections[s].bitmask)
            << "cycle " << i << " selection " << s;
      }
      EXPECT_EQ(a.schedule.estimated_cost_s, b.schedule.estimated_cost_s)
          << "cycle " << i;
      EXPECT_EQ(a.schedule.covered_union, b.schedule.covered_union)
          << "cycle " << i;
      EXPECT_EQ(a.schedule.used_naive_fallback,
                b.schedule.used_naive_fallback)
          << "cycle " << i;
    }
    EXPECT_GT(compared_selective, 0u);
    ASSERT_NE(inc.incremental_planner(), nullptr);
    const auto& stats = inc.incremental_planner()->stats();
    EXPECT_GT(stats.incremental_cycles, 0u);
    EXPECT_EQ(stats.cycles, stats.incremental_cycles + stats.full_rebuilds);
  }
}

TEST(TagwatchIntegration, BlockedTagToleratedWithoutDeadlock) {
  Testbed bed(12, 1, 88);
  bed.world.tags()[5].block_probability = 0.5;
  TagwatchController ctl(test_config(), *bed.client);
  const auto reports = ctl.run_cycles(5);
  // The system keeps cycling and the blocked tag is still read sometimes.
  EXPECT_EQ(reports.size(), 5u);
  EXPECT_NE(ctl.history().find(bed.world.tags()[5].epc), nullptr);
}

}  // namespace
}  // namespace tagwatch::core
