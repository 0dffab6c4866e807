// Record → replay round trip: a RecordingReaderClient journals a live run
// and a ReplayReaderClient reproduces it bit-for-bit without the simulator.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "core/tagwatch.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

namespace tagwatch::llrp {
namespace {

struct RecordBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, 5, 0}, 8.0}};
  std::optional<SimReaderClient> sim;
  std::optional<RecordingReaderClient> recorder;

  RecordBed(std::size_t n_tags, std::size_t n_movers,
            std::uint64_t seed = 33) {
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
    recorder.emplace(*sim);
  }
};

core::TagwatchConfig short_config() {
  core::TagwatchConfig cfg;
  cfg.phase2_duration = util::sec(1);
  return cfg;
}

std::vector<core::CycleReport> record_run(RecordBed& bed, std::size_t cycles) {
  core::TagwatchController ctl(short_config(), *bed.recorder);
  return ctl.run_cycles(cycles);
}

TEST(ReplayReaderClient, ReproducesRecordedRunBitForBit) {
  RecordBed bed(20, 2);
  const auto recorded = record_run(bed, 5);

  // Round-trip the journal through its CSV form, then replay.
  const ReaderJournal journal =
      ReaderJournal::from_csv(bed.recorder->journal().to_csv());
  ReplayReaderClient replay(journal);
  core::TagwatchController ctl(short_config(), replay);
  const auto replayed = ctl.run_cycles(5);

  ASSERT_EQ(replayed.size(), recorded.size());
  for (std::size_t c = 0; c < recorded.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    EXPECT_EQ(replayed[c].scene, recorded[c].scene);
    EXPECT_EQ(replayed[c].mobile, recorded[c].mobile);
    EXPECT_EQ(replayed[c].targets, recorded[c].targets);
    EXPECT_EQ(replayed[c].read_all_fallback, recorded[c].read_all_fallback);
    EXPECT_EQ(replayed[c].phase1_readings, recorded[c].phase1_readings);
    EXPECT_EQ(replayed[c].phase2_readings, recorded[c].phase2_readings);
    EXPECT_EQ(replayed[c].phase2_counts, recorded[c].phase2_counts);
    EXPECT_EQ(replayed[c].phase1_duration, recorded[c].phase1_duration);
    EXPECT_EQ(replayed[c].phase2_duration, recorded[c].phase2_duration);
    EXPECT_EQ(replayed[c].interphase_gap, recorded[c].interphase_gap);
    EXPECT_EQ(replayed[c].schedule.selections.size(),
              recorded[c].schedule.selections.size());
    EXPECT_EQ(replayed[c].slot_totals.slots, recorded[c].slot_totals.slots);
  }
  EXPECT_EQ(replay.remaining(), 0u);
}

TEST(ReplayReaderClient, JournalCsvRoundTripIsExact) {
  RecordBed bed(10, 1);
  record_run(bed, 3);
  const std::string csv = bed.recorder->journal().to_csv();
  const ReaderJournal parsed = ReaderJournal::from_csv(csv);
  EXPECT_EQ(parsed.size(), bed.recorder->journal().size());
  EXPECT_EQ(parsed.to_csv(), csv);
  EXPECT_EQ(parsed.capabilities.antenna_count, 2u);
  EXPECT_EQ(journal_digest(parsed), journal_digest(bed.recorder->journal()));
}

TEST(ReplayReaderClient, IdenticalSeedsProduceIdenticalJournalDigests) {
  // The whole-journal digest is the one-number determinism witness: two
  // runs from the same seed must collide, a different seed must not.
  RecordBed a(10, 1, /*seed=*/41);
  RecordBed b(10, 1, /*seed=*/41);
  RecordBed c(10, 1, /*seed=*/42);
  for (RecordBed* bed : {&a, &b, &c}) {
    core::TagwatchController ctl(short_config(), *bed->recorder);
    ctl.run_cycles(3);
  }
  EXPECT_EQ(journal_digest(a.recorder->journal()),
            journal_digest(b.recorder->journal()));
  EXPECT_NE(journal_digest(a.recorder->journal()),
            journal_digest(c.recorder->journal()));
}

TEST(ReplayReaderClient, ReplayDrivenReRecordingPreservesTheDigest) {
  // Record a run, replay it into a *second* recorder: the re-recorded
  // journal must digest identically — replay is bit-exact end to end.
  RecordBed bed(12, 2, /*seed=*/55);
  const core::TagwatchConfig cfg = short_config();
  {
    core::TagwatchController ctl(cfg, *bed.recorder);
    ctl.run_cycles(3);
  }
  const std::uint64_t original = journal_digest(bed.recorder->journal());

  ReplayReaderClient replay(bed.recorder->journal());
  RecordingReaderClient rerecorder(replay);
  core::TagwatchController ctl(cfg, rerecorder);
  ctl.run_cycles(3);

  // The capabilities line names the backend ("replay(sim-gen2)" vs
  // "sim-gen2"); the *operation stream* is what must be bit-identical.
  ReaderJournal rerecorded = rerecorder.journal();
  rerecorded.capabilities = bed.recorder->journal().capabilities;
  EXPECT_EQ(journal_digest(rerecorded), original);
}

TEST(ReplayReaderClient, StrictModeRejectsDivergingController) {
  RecordBed bed(12, 1);
  record_run(bed, 2);

  // A controller with a different Phase I Q issues different ROSpecs.
  ReplayReaderClient replay(bed.recorder->journal());
  core::TagwatchConfig diverged = short_config();
  diverged.phase1_initial_q = 7;
  core::TagwatchController ctl(diverged, replay);
  EXPECT_THROW(ctl.run_cycle(), std::runtime_error);
}

TEST(ReplayReaderClient, RunningPastTheRecordingThrows) {
  RecordBed bed(8, 0);
  record_run(bed, 2);
  ReplayReaderClient replay(bed.recorder->journal());
  core::TagwatchController ctl(short_config(), replay);
  ctl.run_cycles(2);
  EXPECT_THROW(ctl.run_cycle(), std::runtime_error);
}

TEST(ReplayReaderClient, CapabilitiesComeFromTheJournal) {
  RecordBed bed(5, 0);
  record_run(bed, 1);
  ReplayReaderClient replay(bed.recorder->journal());
  const ReaderCapabilities caps = replay.capabilities();
  EXPECT_EQ(caps.antenna_count, 2u);
  EXPECT_FALSE(caps.live);
  EXPECT_EQ(caps.model, "replay(sim-gen2)");
}

TEST(RecordingReaderClient, StreamsReadingsToListenerLive) {
  RecordBed bed(6, 0);
  std::size_t streamed = 0;
  bed.recorder->set_read_listener(
      [&streamed](const rf::TagReading&) { ++streamed; });
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(2);
  spec.ai_specs.push_back(ai);
  const ExecutionReport report = bed.recorder->execute(spec).report;
  EXPECT_EQ(streamed, report.readings.size());
  EXPECT_GT(streamed, 0u);
  ASSERT_EQ(bed.recorder->journal().size(), 1u);
  EXPECT_EQ(bed.recorder->journal().entries()[0].digest, rospec_digest(spec));
}

TEST(RecordingReaderClient, JournalsAdvanceCharges) {
  RecordBed bed(4, 0);
  const util::SimTime before = bed.recorder->now();
  bed.recorder->advance(util::msec(25));
  EXPECT_EQ(bed.recorder->now() - before, util::msec(25));
  ASSERT_EQ(bed.recorder->journal().size(), 1u);
  const JournalEntry& entry = bed.recorder->journal().entries()[0];
  EXPECT_EQ(entry.kind, JournalEntry::Kind::kAdvance);
  EXPECT_EQ(entry.advance, util::msec(25));
}

TEST(ReaderJournal, RejectsMalformedCsv) {
  EXPECT_THROW(ReaderJournal::from_csv("not a journal"),
               std::invalid_argument);
  EXPECT_THROW(ReaderJournal::from_csv("# tagwatch-reader-journal v1\nX,1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      ReaderJournal::from_csv("# tagwatch-reader-journal v1\nE,zz\n"),
      std::invalid_argument);
  // Truncated mid-entry: the execute promises a reading that never comes.
  EXPECT_THROW(
      ReaderJournal::from_csv(
          "# tagwatch-reader-journal v1\nE,0123456789abcdef,0,10,1,1,0,0,1,"
          "0,10,1\n"),
      std::invalid_argument);
}

/// Asserts that `csv` is rejected with std::invalid_argument naming
/// `line` — not accepted, and not a length_error or bad_alloc.
void expect_rejected_at(const std::string& csv, std::size_t line) {
  try {
    (void)ReaderJournal::from_csv(csv);
    ADD_FAILURE() << "accepted:\n" << csv;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) +
                                         ":"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReaderJournal, RejectsNegativeAndUntrustedCounts) {
  const std::string header = "# tagwatch-reader-journal v1\n";
  const std::string execute = "E,0123456789abcdef,0,10,1,1,0,0,1,0,10,";
  const std::string reading = "R," + std::string(96, '0') + ",1,0,0.5,-60,5\n";
  // A negative reading count used to reach vector::reserve as 2^64-1.
  expect_rejected_at(header + execute + "-1\n", 2);
  // Declared counts are untrusted: nothing is reserved for readings that
  // never arrive, so a huge count is a truncated journal, not bad_alloc.
  expect_rejected_at(header + execute + "1000000000000\n", 2);
  expect_rejected_at(header + execute + "100000000\n" + reading, 3);
  // Every other count field: negative values used to wrap silently.
  expect_rejected_at(header + "C,sim,-1,1,0,0\n", 2);
  expect_rejected_at(header + "C,sim,4,-1,0,0\n", 2);
  expect_rejected_at(header + "E,0123456789abcdef,0,10,-1,1,0,0,1,0,10,0\n",
                     2);
  expect_rejected_at(header + "E,0123456789abcdef,0,10,1,1,0,0,1,-3,10,0\n",
                     2);
  expect_rejected_at(header + execute + "0\nX,timeout,-1,lost\n", 3);
  expect_rejected_at(
      header + execute + "1\nR," + std::string(96, '0') + ",1,-1,0.5,-60,5\n",
      3);
  // The antenna is a uint8_t on the wire: out-of-range values used to
  // truncate (256 -> 0) instead of failing.
  expect_rejected_at(
      header + execute + "1\nR," + std::string(96, '0') + ",-1,0,0.5,-60,5\n",
      3);
  expect_rejected_at(
      header + execute + "1\nR," + std::string(96, '0') + ",256,0,0.5,-60,5\n",
      3);
  // The well-formed twin of the cases above round-trips exactly.
  const std::string ok = header + "C,sim,4,1,0,0\n" + execute + "1\n" +
                         reading;
  EXPECT_EQ(ReaderJournal::from_csv(ok).to_csv(), ok);
}

TEST(ReaderJournal, RejectsNonCanonicalFields) {
  // Every field must be exactly what to_csv writes for its value: other
  // spellings of the same value used to load and then save as different
  // text, so the journal digest changed under a load/save cycle.
  const std::string header = "# tagwatch-reader-journal v1\n";
  const std::string caps = "C,sim,4,1,0,0\n";
  const std::string execute = "E,0123456789abcdef,0,10,1,1,0,0,1,0,10,";
  const std::string epc(96, '0');
  for (const std::string& bad : {
           // Counts and integers: no space, '+' or leading zero.
           header + "C,sim, 4,1,0,0\n",
           header + "C,sim,+4,1,0,0\n",
           header + "C,sim,04,1,0,0\n",
           header + "C,sim,4,1,0,0 \n",
           header + caps + "A, 5\n",
           header + caps + "A,-0\n",
           header + caps + "A,007\n",
           header + caps + "E,0123456789abcdef,+0,10,1,1,0,0,1,0,10,0\n",
           header + caps + execute + "00\n",
           // The capability flags: 0 or 1 only.
           header + "C,sim,4,1,-7,0\n",
           header + "C,sim,4,1,0,2\n",
           // Digests: exactly 16 lower-case hex digits.
           header + caps + "E,-1,0,10,1,1,0,0,1,0,10,0\n",
           header + caps + "E,0x1,0,10,1,1,0,0,1,0,10,0\n",
           header + caps + "E, 1,0,10,1,1,0,0,1,0,10,0\n",
           header + caps + "E,1,0,10,1,1,0,0,1,0,10,0\n",
           header + caps + "E,0123456789ABCDEF,0,10,1,1,0,0,1,0,10,0\n",
           header + caps + "E,00123456789abcdef,0,10,1,1,0,0,1,0,10,0\n",
           // Doubles: the %.17g text only.
           header + caps + execute + "1\nR," + epc + ",1,0,0.50,-60,5\n",
           header + caps + execute + "1\nR," + epc + ",1,0, 0.5,-60,5\n",
           header + caps + execute + "1\nR," + epc + ",1,0,5e-1,-60,5\n",
           header + caps + execute + "1\nR," + epc + ",1,0,0.5,-60.0,5\n",
           // Text: no carriage return (sanitize_field would rewrite it).
           header + "C,si\rm,4,1,0,0\n",
       }) {
    EXPECT_THROW((void)ReaderJournal::from_csv(bad), std::invalid_argument)
        << bad;
  }
  const std::string ok = header + caps + execute + "1\nR," + epc +
                         ",1,0,0.5,-60,5\nA,-7\n";
  EXPECT_EQ(ReaderJournal::from_csv(ok).to_csv(), ok);
}

TEST(ReaderJournal, SaveLoadRoundTrip) {
  RecordBed bed(6, 1);
  record_run(bed, 2);
  const std::string path = ::testing::TempDir() + "tagwatch_journal.csv";
  bed.recorder->journal().save(path);
  const ReaderJournal loaded = ReaderJournal::load(path);
  EXPECT_EQ(loaded.to_csv(), bed.recorder->journal().to_csv());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tagwatch::llrp
