// FleetController: TDM cycles over N readers, cross-reader dedup, zone
// handoff detection, per-source attribution, and the fleet journal's
// record→replay digest contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "llrp/fault_injection.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

namespace tagwatch::core {
namespace {

/// A warehouse strip covered by up to four readers whose zones overlap at
/// the seams.  Tags are planted per-zone plus on the seams; optional
/// movers orbit through several zones.
struct FleetBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::shared_ptr<gen2::TagFlagField> field;
  std::vector<std::unique_ptr<llrp::SimReaderClient>> clients;
  std::vector<FleetReaderSpec> specs;
  std::size_t seam_tags = 0;

  /// Readers sit at x = 0, 4, 8, ... with radius 3: adjacent zones overlap
  /// on a 2 m seam.  `tags_per_zone` statics are planted at each zone
  /// center, `seam` statics on each seam between adjacent zones.
  FleetBed(std::size_t n_readers, std::size_t tags_per_zone,
           std::size_t seam, std::size_t movers = 0,
           gen2::SessionTiming timing = gen2::SessionTiming::spec_default(),
           std::uint64_t seed = 33) {
    util::Rng rng(seed);
    field = std::make_shared<gen2::TagFlagField>(timing);
    std::size_t serial = 1;
    for (std::size_t r = 0; r < n_readers; ++r) {
      const double cx = static_cast<double>(r) * 4.0;
      sim::Zone zone{"zone-" + std::to_string(r), {cx, 0, 0}, 3.0};
      for (std::size_t i = 0; i < tags_per_zone; ++i) {
        add_static(serial++, {cx + rng.uniform(-0.5, 0.5),
                              rng.uniform(-0.5, 0.5), 0});
      }
      if (r + 1 < n_readers) {
        for (std::size_t i = 0; i < seam; ++i) {
          add_static(serial++, {cx + 2.0, rng.uniform(-0.3, 0.3), 0});
          ++seam_tags;
        }
      }
      gen2::ReaderConfig rc;
      rc.coverage = zone;
      clients.push_back(std::make_unique<llrp::SimReaderClient>(
          gen2::LinkTiming(gen2::LinkParams::max_throughput()), rc, world,
          channel, std::vector<rf::Antenna>{{1, {cx, 0, 2}, 8.0}},
          seed + 10 + r, field));
      specs.push_back({clients.back().get(), zone});
    }
    for (std::size_t i = 0; i < movers; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(serial++);
      t.motion = std::make_shared<sim::CircularTrack>(
          util::Vec3{2, 0, 0}, 2.5, 1.5, static_cast<double>(i));
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
  }

  void add_static(std::size_t serial, util::Vec3 pos) {
    sim::SimTag t;
    t.epc = util::Epc::from_serial(serial);
    t.motion = std::make_shared<sim::StaticMotion>(pos);
    t.tag_phase_rad = 0.1 * static_cast<double>(serial);
    world.add_tag(std::move(t));
  }
};

FleetConfig short_fleet_config() {
  FleetConfig cfg;
  cfg.controller.phase2_duration = util::msec(200);
  return cfg;
}

// ------------------------------------------------------------ construction

TEST(FleetController, RejectsEmptyAndNullReaders) {
  EXPECT_THROW(FleetController(short_fleet_config(), {}),
               std::invalid_argument);
  std::vector<FleetReaderSpec> specs(1);
  specs[0].client = nullptr;
  EXPECT_THROW(FleetController(short_fleet_config(), std::move(specs)),
               std::invalid_argument);
}

TEST(FleetController, SessionPolicyAssignsPerReaderSessions) {
  FleetBed bed(2, 2, 0);
  FleetConfig cfg = short_fleet_config();
  cfg.policy = SessionPolicy::kPerReader;
  FleetController fleet(cfg, bed.specs);
  EXPECT_EQ(fleet.reader_session(0), gen2::Session::kS0);
  EXPECT_EQ(fleet.reader_session(1), gen2::Session::kS1);

  cfg.policy = SessionPolicy::kShared;
  cfg.shared_session = gen2::Session::kS3;
  FleetBed bed2(2, 2, 0);
  FleetController shared(cfg, bed2.specs);
  EXPECT_EQ(shared.reader_session(0), gen2::Session::kS3);
  EXPECT_EQ(shared.reader_session(1), gen2::Session::kS3);
  EXPECT_EQ(shared.journal().setup.policy, "shared");
}

TEST(FleetController, PlannerConfigPropagatesToEveryReader) {
  FleetBed bed(2, 10, 0, 2);
  FleetConfig cfg = short_fleet_config();
  cfg.controller.planner.incremental = true;
  cfg.controller.planner.churn_threshold = 0.5;
  FleetController fleet(cfg, bed.specs);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(fleet.controller(r).config().planner.incremental);
    EXPECT_EQ(fleet.controller(r).config().planner.churn_threshold, 0.5);
  }
  fleet.run_cycles(8);
  // Each reader that got past cold start planned via its own persistent
  // planner; the stats invariant must hold wherever one was built.
  bool planned = false;
  for (std::size_t r = 0; r < 2; ++r) {
    const IncrementalPlanner* p = fleet.controller(r).incremental_planner();
    if (p == nullptr) continue;
    planned = true;
    EXPECT_GT(p->stats().cycles, 0u);
    EXPECT_EQ(p->stats().cycles,
              p->stats().incremental_cycles + p->stats().full_rebuilds);
  }
  EXPECT_TRUE(planned);
}

TEST(SessionPolicy, NamesRoundTrip) {
  for (const SessionPolicy p : {SessionPolicy::kIndependent,
                                SessionPolicy::kShared,
                                SessionPolicy::kPerReader}) {
    EXPECT_EQ(session_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(session_policy_from_string("bogus"), std::invalid_argument);
}

// ------------------------------------------------------- dedup and handoff

TEST(FleetController, SingleReaderFleetNeverDeduplicates) {
  FleetBed bed(1, 6, 0);
  FleetController fleet(short_fleet_config(), bed.specs);
  const auto reports = fleet.run_cycles(2);
  for (const FleetCycleReport& r : reports) {
    EXPECT_GT(r.readings_total, 0u);
    EXPECT_EQ(r.duplicates_total, 0u);
    EXPECT_EQ(r.delivered_total, r.readings_total);
    EXPECT_DOUBLE_EQ(r.cross_reader_dup_ratio(), 0.0);
    EXPECT_TRUE(r.handoffs.empty());
  }
  // One F record per reader per cycle, no H records.
  EXPECT_EQ(fleet.journal().size(), 2u);
  EXPECT_EQ(fleet.journal().setup.readers, 1u);
}

TEST(FleetController, SeamReadingsAreDedupedAcrossReaders) {
  FleetBed bed(2, 4, 2);
  FleetConfig cfg = short_fleet_config();
  cfg.dedup_window = util::sec(30);  // everything in one window
  FleetController fleet(cfg, bed.specs);

  const FleetCycleReport r = fleet.run_cycle();
  // Reader 0 delivered the seam tags first; every later sighting of them
  // by reader 1 is a cross-reader duplicate.
  EXPECT_GE(r.duplicates_total, bed.seam_tags);
  EXPECT_EQ(r.delivered_total + r.duplicates_total, r.readings_total);
  EXPECT_GT(r.cross_reader_dup_ratio(), 0.0);
  EXPECT_LT(r.cross_reader_dup_ratio(), 1.0);
  EXPECT_EQ(r.readers[0].duplicates, 0u);  // first in TDM order: never dups
  EXPECT_GE(r.readers[1].duplicates, bed.seam_tags);
  // Suppressed sightings never refresh ownership: the seam tags keep one
  // owner, so no handoffs fire.
  EXPECT_TRUE(r.handoffs.empty());
}

TEST(FleetController, HandoffFiresWhenAnotherReaderDeliversTheTag) {
  FleetBed bed(2, 2, 1);
  FleetConfig cfg = short_fleet_config();
  cfg.dedup_window = util::SimDuration::zero();  // dedup off: seam flaps
  FleetController fleet(cfg, bed.specs);

  const FleetCycleReport first = fleet.run_cycle();
  // Reader 0 claimed the seam tag; reader 1's delivered sighting hands it
  // off exactly once (its own repeats are not handoffs).
  ASSERT_EQ(first.handoffs.size(), 1u);
  EXPECT_EQ(first.handoffs[0].from_reader, 0u);
  EXPECT_EQ(first.handoffs[0].to_reader, 1u);
  EXPECT_EQ(first.handoffs[0].epc, util::Epc::from_serial(3));  // the seam tag

  // Next cycle the seam tag flaps back to reader 0, then to reader 1 again.
  const FleetCycleReport second = fleet.run_cycle();
  ASSERT_EQ(second.handoffs.size(), 2u);
  EXPECT_EQ(second.handoffs[0].from_reader, 1u);
  EXPECT_EQ(second.handoffs[0].to_reader, 0u);
  EXPECT_EQ(second.handoffs[1].from_reader, 0u);
  EXPECT_EQ(second.handoffs[1].to_reader, 1u);

  // H records landed in the journal after the cycle's F records.
  std::size_t h_records = 0;
  for (const auto& e : fleet.journal().entries()) {
    if (e.kind == llrp::FleetJournalEntry::Kind::kHandoff) ++h_records;
  }
  EXPECT_EQ(h_records, 3u);
}

TEST(FleetController, OwnershipSurvivesWorldReindexing) {
  // Reader 0 owns serials 1-3, reader 1 serials 4-6 (disjoint zones).
  // After cycle 0, serial 1 leaves the world (every later index shifts)
  // and serial 3 leaves and re-enters inside reader 1's zone.  Reader 0
  // dies right after cycle 1.  Reader 0 is wrapped in a fault injector in
  // both runs, so the fault-free twin finds the death time on the same
  // clock.
  const util::Epc moved = util::Epc::from_serial(3);
  const auto run = [&](const llrp::FaultPlan& plan,
                       util::SimTime& cycle1_end) {
    FleetBed bed(2, 3, 0);
    llrp::FaultInjectingReaderClient dying(*bed.clients[0], plan);
    bed.specs[0].client = &dying;
    FleetConfig cfg = short_fleet_config();
    cfg.takeover = TakeoverPolicy::kNone;
    cfg.resilience.down_after_failures = 1;
    FleetController fleet(cfg, bed.specs);

    const FleetCycleReport first = fleet.run_cycle();
    EXPECT_TRUE(first.handoffs.empty());
    EXPECT_TRUE(bed.world.remove_tag(util::Epc::from_serial(1)));
    EXPECT_TRUE(bed.world.remove_tag(moved));
    bed.add_static(3, {4.2, 0.1, 0});

    // Exactly one handoff: reader 0 still owns the re-entered tag when
    // reader 1 delivers it.
    const FleetCycleReport second = fleet.run_cycle();
    EXPECT_EQ(second.readers[1].duplicates, 0u);
    EXPECT_EQ(second.handoffs.size(), 1u);
    for (const llrp::FleetHandoffRecord& h : second.handoffs) {
      EXPECT_EQ(h.epc, moved);
      EXPECT_EQ(h.from_reader, 0u);
      EXPECT_EQ(h.to_reader, 1u);
    }
    cycle1_end = dying.now();
    return fleet.run_cycle();
  };

  util::SimTime cycle1_end{0};
  const FleetCycleReport fault_free = run({}, cycle1_end);
  EXPECT_TRUE(fault_free.downs.empty());

  // The same script with reader 0 dead from just before cycle 2.  Its
  // orphans are serials 1 (departed, last delivered by reader 0) and 2;
  // serial 3 now belongs to reader 1 and is not orphaned.
  llrp::FaultPlan outage;
  outage.outages.push_back({cycle1_end - util::msec(1), std::nullopt});
  const FleetCycleReport third = run(outage, cycle1_end);
  ASSERT_EQ(third.downs.size(), 1u);
  EXPECT_EQ(third.downs[0].reader, 0u);
  EXPECT_EQ(third.recover.enqueued, 2u);
  EXPECT_EQ(third.recover.dropped, 0u);
  EXPECT_EQ(third.recover.pending, 2u);
}

TEST(FleetController, SharedSessionReadsThePopulationOnce) {
  // Both readers fully overlap (one zone position) and inventory one S2
  // session without re-arming: reader 0's ACKs flip every tag to B, so
  // reader 1 — and every later cycle — finds nothing left on target A.
  FleetBed bed(1, 8, 0);
  FleetReaderSpec second = bed.specs[0];
  bed.clients.push_back(std::make_unique<llrp::SimReaderClient>(
      gen2::LinkTiming(gen2::LinkParams::max_throughput()),
      bed.clients[0]->reader().config(), bed.world, bed.channel,
      std::vector<rf::Antenna>{{1, {0, 0, 2}, 8.0}}, 99, bed.field));
  second.client = bed.clients.back().get();
  bed.specs.push_back(second);

  FleetConfig cfg = short_fleet_config();
  cfg.policy = SessionPolicy::kShared;
  cfg.shared_session = gen2::Session::kS2;
  FleetController fleet(cfg, bed.specs);

  const FleetCycleReport first = fleet.run_cycle();
  EXPECT_EQ(first.readers[0].report.phase1_readings, 8u);
  EXPECT_EQ(first.readers[1].report.phase1_readings, 0u);
  // S2 holds indefinitely while energized: the next cycle reads nothing.
  const FleetCycleReport second_cycle = fleet.run_cycle();
  EXPECT_EQ(second_cycle.readings_total, 0u);
}

TEST(FleetController, IndependentPolicyRereadsEveryCycle) {
  FleetBed bed(2, 3, 0);
  FleetController fleet(short_fleet_config(), bed.specs);
  for (const FleetCycleReport& r : fleet.run_cycles(2)) {
    EXPECT_EQ(r.readers[0].report.phase1_readings, 3u);
    EXPECT_EQ(r.readers[1].report.phase1_readings, 3u);
  }
}

// ----------------------------------------------------- source attribution

TEST(FleetController, FleetPipelineStatsAttributePerReader) {
  FleetBed bed(2, 3, 0);  // disjoint zones: both readers deliver
  FleetController fleet(short_fleet_config(), bed.specs);
  std::size_t delivered = 0;
  fleet.pipeline().add_sink(std::make_shared<CallbackSink>(
      "app", [&delivered](const rf::TagReading&) { ++delivered; }));
  const FleetCycleReport r = fleet.run_cycle();

  EXPECT_EQ(delivered, r.delivered_total);
  std::uint64_t by_source[2] = {0, 0};
  for (const SinkStats& s : fleet.pipeline().stats()) {
    ASSERT_LT(s.source_id, 2u);
    by_source[s.source_id] += s.delivered;
  }
  // Each reader's zone population was delivered under its own source_id.
  EXPECT_GT(by_source[0], 0u);
  EXPECT_GT(by_source[1], 0u);
  EXPECT_EQ(by_source[0] + by_source[1], r.delivered_total);
}

// ------------------------------------------------------------ journal CSV

TEST(FleetJournal, CsvRoundTripIsExact) {
  llrp::FleetJournal journal;
  journal.setup.readers = 3;
  journal.setup.policy = "per-reader";
  journal.setup.session = gen2::Session::kS2;
  journal.setup.dedup_window = util::msec(250);
  journal.push_cycle({0, 1, "zone-1", 12, 34, 40, 6});
  journal.push_handoff({util::Epc::from_serial(7), 0, 1,
                        util::SimTime{util::msec(1234).count()}});
  journal.push_cycle({1, 0, "zone-0", 9, 0, 9, 0});
  journal.push_down({2, 1, "zone-1", 3});
  journal.push_takeover({2, 1, 0, 4250});
  journal.push_recover({5, 1, 3});

  const std::string csv = journal.to_csv();
  for (const char* tag : {"\nS,", "\nF,", "\nH,", "\nD,", "\nT,", "\nR,"}) {
    EXPECT_NE(csv.find(tag), std::string::npos) << tag;
  }
  const llrp::FleetJournal parsed = llrp::FleetJournal::from_csv(csv);
  EXPECT_EQ(parsed.to_csv(), csv);
  EXPECT_EQ(parsed.size(), 6u);
  EXPECT_EQ(parsed.setup.readers, 3u);
  EXPECT_EQ(parsed.setup.policy, "per-reader");
  EXPECT_EQ(parsed.setup.session, gen2::Session::kS2);
  EXPECT_EQ(parsed.setup.dedup_window, util::msec(250));
  EXPECT_EQ(parsed.entries()[1].handoff.epc, util::Epc::from_serial(7));
  EXPECT_EQ(parsed.entries()[1].handoff.to_reader, 1u);
  EXPECT_EQ(fleet_journal_digest(parsed), fleet_journal_digest(journal));

  const std::string path = ::testing::TempDir() + "tagwatch_fleet.csv";
  journal.save(path);
  EXPECT_EQ(llrp::FleetJournal::load(path).to_csv(), csv);
  std::remove(path.c_str());
}

TEST(FleetJournal, RejectsMalformedCsv) {
  EXPECT_THROW(llrp::FleetJournal::from_csv("nope"), std::invalid_argument);
  EXPECT_THROW(llrp::FleetJournal::from_csv(
                   "# tagwatch-fleet-journal v1\nX,1\n"),
               std::invalid_argument);
  // Records before any setup line.
  EXPECT_THROW(llrp::FleetJournal::from_csv(
                   "# tagwatch-fleet-journal v1\nF,0,0,z,1,2,3,0\n"),
               std::invalid_argument);
  // Duplicate setup.
  EXPECT_THROW(llrp::FleetJournal::from_csv(
                   "# tagwatch-fleet-journal v1\nS,1,independent,S1,0\n"
                   "S,1,independent,S1,0\n"),
               std::invalid_argument);
  // Wrong field count.
  EXPECT_THROW(llrp::FleetJournal::from_csv(
                   "# tagwatch-fleet-journal v1\nS,1,independent,S1,0\n"
                   "F,0,0,z,1\n"),
               std::invalid_argument);
}

TEST(FleetJournal, RejectsNegativeCounts) {
  // Every size_t field used to accept a negative value and wrap it to
  // 2^64-k, so to_csv(from_csv(x)) != x.  Each must now be rejected with
  // std::invalid_argument naming the line.
  const std::string header = "# tagwatch-fleet-journal v1\n";
  const std::string setup = "S,2,independent,S1,500\n";
  const std::string epc(96, '1');
  for (const auto& [csv, line] : std::vector<std::pair<std::string, int>>{
           {header + "S,-1,independent,S1,0\n", 2},
           {header + setup + "F,-1,0,z,1,2,3,0\n", 3},
           {header + setup + "F,0,-2,z,1,2,3,0\n", 3},
           {header + setup + "F,0,0,z,1,2,3,-1\n", 3},
           {header + setup + "H," + epc + ",-1,1,10\n", 3},
           {header + setup + "H," + epc + ",0,-1,10\n", 3},
           {header + setup + "D,0,0,z,-1\n", 3},
           {header + setup + "T,0,-1,1,1500\n", 3},
           {header + setup + "R,4,0,-1\n", 3},
       }) {
    try {
      (void)llrp::FleetJournal::from_csv(csv);
      ADD_FAILURE() << "accepted:\n" << csv;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) +
                                           ":"),
                std::string::npos)
          << e.what();
    }
  }
  // A negative radius is a signed field and stays valid; the whole
  // well-formed journal round-trips exactly.
  const std::string ok = header + setup + "F,0,1,z,1,2,3,0\nH," + epc +
                         ",0,1,10\nD,1,0,z,3\nT,1,0,1,-1500\nR,4,0,3\n";
  EXPECT_EQ(llrp::FleetJournal::from_csv(ok).to_csv(), ok);
}

TEST(FleetJournal, RejectsNonCanonicalFields) {
  // Every field must be exactly what to_csv writes for its value: other
  // spellings of the same value used to load and then save as different
  // text.
  const std::string header = "# tagwatch-fleet-journal v1\n";
  const std::string setup = "S,2,independent,S1,500\n";
  const std::string epc(96, '1');
  for (const std::string& bad : {
           header + "S, 2,independent,S1,500\n",
           header + "S,+2,independent,S1,500\n",
           header + "S,02,independent,S1,500\n",
           header + "S,2,independent,1,500\n",
           header + "S,2,independent,S1,-0\n",
           header + "S,2,indep\rendent,S1,500\n",
           header + setup + "F,0,1,z,01,2,3,0\n",
           header + setup + "H," + epc + ",0,1,+10\n",
           header + setup + "D,1,0,z\r,3\n",
           header + setup + "T,1,0,1,-01500\n",
           header + setup + "R,4,0, 3\n",
       }) {
    EXPECT_THROW((void)llrp::FleetJournal::from_csv(bad),
                 std::invalid_argument)
        << bad;
  }
}

// --------------------------------------------------------- record → replay

TEST(FleetController, FourReaderRecordReplayPreservesJournalDigests) {
  // The acceptance run: four readers over overlapping zones with movers
  // crossing seams.  Record every reader through a RecordingReaderClient,
  // then rebuild the fleet on ReplayReaderClients (no world) and demand
  // bit-identical fleet journals.
  FleetBed bed(4, 3, 2, /*movers=*/2, gen2::SessionTiming::spec_default(),
               /*seed=*/55);
  std::vector<std::unique_ptr<llrp::RecordingReaderClient>> recorders;
  std::vector<FleetReaderSpec> recording_specs = bed.specs;
  for (std::size_t k = 0; k < bed.specs.size(); ++k) {
    recorders.push_back(
        std::make_unique<llrp::RecordingReaderClient>(*bed.specs[k].client));
    recording_specs[k].client = recorders[k].get();
  }

  FleetConfig cfg = short_fleet_config();
  cfg.policy = SessionPolicy::kIndependent;
  FleetController recorded(cfg, recording_specs);
  const auto recorded_reports = recorded.run_cycles(3);
  const std::uint64_t fleet_digest = fleet_journal_digest(recorded.journal());

  // The overlap actually exercised dedup during the recording.
  std::size_t dups = 0;
  for (const auto& r : recorded_reports) dups += r.duplicates_total;
  EXPECT_GT(dups, 0u);

  // Replay: every reader journal round-trips through CSV first, and the
  // fleet is rebuilt on the replay clients alone.
  std::vector<std::unique_ptr<llrp::ReplayReaderClient>> replays;
  std::vector<FleetReaderSpec> replay_specs = bed.specs;
  for (std::size_t k = 0; k < recorders.size(); ++k) {
    replays.push_back(std::make_unique<llrp::ReplayReaderClient>(
        llrp::ReaderJournal::from_csv(recorders[k]->journal().to_csv())));
    replay_specs[k].client = replays[k].get();
  }
  FleetController replayed(cfg, replay_specs);
  const auto replayed_reports = replayed.run_cycles(3);

  EXPECT_EQ(fleet_journal_digest(replayed.journal()), fleet_digest);
  EXPECT_EQ(replayed.journal().to_csv(), recorded.journal().to_csv());
  ASSERT_EQ(replayed_reports.size(), recorded_reports.size());
  for (std::size_t c = 0; c < recorded_reports.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    EXPECT_EQ(replayed_reports[c].readings_total,
              recorded_reports[c].readings_total);
    EXPECT_EQ(replayed_reports[c].delivered_total,
              recorded_reports[c].delivered_total);
    EXPECT_EQ(replayed_reports[c].duplicates_total,
              recorded_reports[c].duplicates_total);
    EXPECT_EQ(replayed_reports[c].handoffs.size(),
              recorded_reports[c].handoffs.size());
  }
}

}  // namespace
}  // namespace tagwatch::core
