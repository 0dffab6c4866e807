// FaultInjectingReaderClient: scripted and probabilistic fault schedules,
// per-reading mangling, determinism, and the journal's error (X) records.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "llrp/fault_injection.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

namespace tagwatch::llrp {
namespace {

struct FaultBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, 5, 0}, 8.0}};
  std::optional<SimReaderClient> sim;
  std::optional<FaultInjectingReaderClient> faulty;

  explicit FaultBed(FaultPlan plan, std::size_t n_tags = 10,
                    std::uint64_t seed = 33) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::random(rng);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    sim.emplace(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                gen2::ReaderConfig{}, world, channel, antennas, seed + 1);
    faulty.emplace(*sim, std::move(plan));
  }
};

ROSpec rounds_spec(std::size_t rounds = 2) {
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(rounds);
  spec.ai_specs.push_back(ai);
  return spec;
}

TEST(FaultInjection, CleanPlanPassesThroughUnchanged) {
  FaultBed bed(FaultPlan{});
  const ExecutionResult r = bed.faulty->execute(rounds_spec());
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.report.readings.size(), 0u);
  EXPECT_EQ(bed.faulty->stats().injected_faults_total(), 0u);
  EXPECT_EQ(bed.faulty->capabilities().model, "faulty(sim-gen2)");
  EXPECT_EQ(bed.faulty->capabilities().antenna_count, 2u);
}

TEST(FaultInjection, ScriptedTimeoutFiresAtItsIndexWithPartialSalvage) {
  FaultPlan plan;
  plan.scripted = {{1, ReaderErrorKind::kTimeout, 0}};
  plan.failure_keep_fraction = 0.5;
  FaultBed bed(plan);

  const ExecutionResult first = bed.faulty->execute(rounds_spec());
  EXPECT_TRUE(first.ok());

  const ExecutionResult second = bed.faulty->execute(rounds_spec());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error->kind, ReaderErrorKind::kTimeout);
  EXPECT_EQ(second.error->message, "injected timeout (execute #1)");
  // The inventory ran; about half the readings survive as the salvage.
  EXPECT_GT(second.report.readings.size(), 0u);
  EXPECT_LT(second.report.readings.size(), first.report.readings.size());
  EXPECT_EQ(bed.faulty->stats().injected_timeouts, 1u);

  EXPECT_TRUE(bed.faulty->execute(rounds_spec()).ok());
}

TEST(FaultInjection, DisconnectChargesReconnectLatencyAndRunsItsEpisode) {
  FaultPlan plan;
  plan.scripted = {{0, ReaderErrorKind::kDisconnected, 0}};
  plan.reconnect_latency = util::msec(80);
  plan.disconnect_episode_length = 2;
  FaultBed bed(plan);

  const util::SimTime before = bed.faulty->now();
  const ExecutionResult first = bed.faulty->execute(rounds_spec());
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error->kind, ReaderErrorKind::kDisconnected);
  // Nothing was read, but re-establishing the session cost reader time.
  EXPECT_TRUE(first.report.readings.empty());
  EXPECT_EQ(bed.faulty->now() - before, util::msec(80));

  // Episode length 2: the next execute is still down, the one after is not.
  EXPECT_FALSE(bed.faulty->execute(rounds_spec()).ok());
  EXPECT_TRUE(bed.faulty->execute(rounds_spec()).ok());
  EXPECT_EQ(bed.faulty->stats().injected_disconnects, 2u);
}

TEST(FaultInjection, LostAntennaPoisonsSpecsUntilAvoided) {
  FaultPlan plan;
  plan.scripted = {{0, ReaderErrorKind::kAntennaLost, 1}};
  FaultBed bed(plan);

  ROSpec all = rounds_spec();  // Empty antenna list = all, including port 1.
  const ExecutionResult killed = bed.faulty->execute(all);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.error->kind, ReaderErrorKind::kAntennaLost);
  EXPECT_EQ(killed.error->antenna, 1u);
  EXPECT_TRUE(bed.faulty->lost_antennas().contains(1));

  // Still driving the dead port: fails fast, deterministically.
  const ExecutionResult again = bed.faulty->execute(all);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error->kind, ReaderErrorKind::kAntennaLost);

  // Naming only the healthy port works.
  ROSpec healthy = rounds_spec();
  healthy.ai_specs[0].antenna_indexes = {0};
  EXPECT_TRUE(bed.faulty->execute(healthy).ok());
}

TEST(FaultInjection, DropAndDuplicateRatesMangleTheReadingStream) {
  FaultPlan drop_all;
  drop_all.reading_drop_rate = 1.0;
  FaultBed dropper(drop_all);
  const ExecutionResult dropped = dropper.faulty->execute(rounds_spec());
  EXPECT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped.report.readings.empty());
  EXPECT_GT(dropper.faulty->stats().dropped_readings, 0u);

  FaultPlan dup_all;
  dup_all.reading_duplicate_rate = 1.0;
  FaultBed duper(dup_all);
  FaultBed clean(FaultPlan{});
  const std::size_t clean_count =
      clean.faulty->execute(rounds_spec()).report.readings.size();
  const ExecutionResult doubled = duper.faulty->execute(rounds_spec());
  EXPECT_EQ(doubled.report.readings.size(), 2 * clean_count);
  EXPECT_EQ(duper.faulty->stats().duplicated_readings, clean_count);
}

TEST(FaultInjection, PhaseCorruptionKeepsPhasesInPrincipalRange) {
  FaultPlan plan;
  plan.phase_corruption_rate = 1.0;
  plan.phase_corruption_stddev_rad = 3.0;
  FaultBed bed(plan);
  const ExecutionResult r = bed.faulty->execute(rounds_spec());
  ASSERT_GT(r.report.readings.size(), 0u);
  for (const rf::TagReading& reading : r.report.readings) {
    EXPECT_GE(reading.phase_rad, 0.0);
    EXPECT_LT(reading.phase_rad, util::kTwoPi);
  }
  EXPECT_EQ(bed.faulty->stats().corrupted_readings, r.report.readings.size());
}

TEST(FaultInjection, SameSeedSamePlanIsDeterministic) {
  FaultPlan plan;
  plan.seed = 7;
  plan.execute_failure_probability = 0.4;
  plan.weight_disconnect = 1.0;
  plan.weight_partial_report = 1.0;
  plan.reading_drop_rate = 0.1;
  plan.phase_corruption_rate = 0.2;

  auto run = [&plan]() {
    FaultBed bed(plan);
    std::vector<std::pair<bool, std::size_t>> trace;
    for (int i = 0; i < 20; ++i) {
      const ExecutionResult r = bed.faulty->execute(rounds_spec());
      trace.emplace_back(r.ok(), r.report.readings.size());
    }
    return std::make_pair(trace, bed.faulty->stats());
  };
  const auto [trace_a, stats_a] = run();
  const auto [trace_b, stats_b] = run();
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(stats_a.injected_faults_total(), stats_b.injected_faults_total());
  EXPECT_EQ(stats_a.injected_timeouts, stats_b.injected_timeouts);
  EXPECT_EQ(stats_a.dropped_readings, stats_b.dropped_readings);
  EXPECT_EQ(stats_a.corrupted_readings, stats_b.corrupted_readings);
}

TEST(FaultInjection, ListenerSeesExactlyTheReportedReadings) {
  FaultPlan plan;
  plan.scripted = {{0, ReaderErrorKind::kPartialReport, 0}};
  plan.reading_duplicate_rate = 0.3;
  FaultBed bed(plan);
  std::size_t streamed = 0;
  bed.faulty->set_read_listener(
      [&streamed](const rf::TagReading&) { ++streamed; });
  const ExecutionResult r = bed.faulty->execute(rounds_spec());
  ASSERT_FALSE(r.ok());
  // Post-mangling, post-truncation: the stream and the report agree, which
  // is what makes a recorded faulty run replay bit-exactly.
  EXPECT_EQ(streamed, r.report.readings.size());
}

// ------------------------------------------------ journal error records

/// Every ReaderErrorKind, in enumerator order.  The walk stops at the first
/// value to_string() does not name; -Wswitch keeps to_string() exhaustive,
/// so the walk finds every enumerator.
std::vector<ReaderErrorKind> all_error_kinds() {
  std::vector<ReaderErrorKind> kinds;
  for (int k = 0;; ++k) {
    const auto kind = static_cast<ReaderErrorKind>(k);
    if (std::string_view(to_string(kind)) == "unknown") return kinds;
    kinds.push_back(kind);
  }
}

TEST(ReaderJournal, ErrorRecordsRoundTripThroughCsv) {
  // One scripted fault of every kind, then an advance and a healthy
  // execute, so the journal carries every record tag (C, E, X, R, A).
  // Only port 0 is driven, so the lost port 1 does not poison later specs.
  const std::vector<ReaderErrorKind> kinds = all_error_kinds();
  FaultPlan plan;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    plan.scripted.push_back({i, kinds[i], 1});
  }
  FaultBed bed(plan);
  RecordingReaderClient recorder(*bed.faulty);
  ROSpec spec = rounds_spec();
  spec.ai_specs[0].antenna_indexes = {0};
  for (std::size_t i = 0; i < kinds.size(); ++i) recorder.execute(spec);
  recorder.advance(util::msec(3));
  recorder.execute(spec);

  const std::string csv = recorder.journal().to_csv();
  for (const ReaderErrorKind kind : kinds) {
    EXPECT_NE(csv.find(std::string("\nX,") + to_string(kind) + ","),
              std::string::npos)
        << to_string(kind);
  }
  EXPECT_NE(csv.find("\nX,antenna-lost,1,"), std::string::npos);
  EXPECT_NE(csv.find("\nA,"), std::string::npos);
  EXPECT_NE(csv.find("\nR,"), std::string::npos);

  const ReaderJournal parsed = ReaderJournal::from_csv(csv);
  EXPECT_EQ(parsed.to_csv(), csv);

  ReplayReaderClient replay(parsed);
  for (const ReaderErrorKind kind : kinds) {
    const ExecutionResult r = replay.execute(spec);
    ASSERT_FALSE(r.ok()) << to_string(kind);
    EXPECT_EQ(r.error->kind, kind);
    if (kind == ReaderErrorKind::kAntennaLost) {
      EXPECT_EQ(r.error->antenna, 1u);
    }
  }
  replay.advance(util::msec(3));
  EXPECT_TRUE(replay.execute(spec).ok());
}

TEST(ReaderJournal, ErrorMessagesWithDelimitersAreSanitized) {
  FaultBed bed(FaultPlan{});
  RecordingReaderClient recorder(*bed.faulty);
  // Inject by hand through the journal API surface: record an entry whose
  // message contains CSV delimiters via a faulty execute, then make sure
  // parsing still works.  (The injector's own messages are delimiter-free;
  // this guards the format against future messages that are not.)
  ReaderJournal journal = recorder.journal();
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kExecute;
  entry.error = ReaderError{ReaderErrorKind::kTimeout, 0,
                            "lost frame, retry\nlater"};
  journal.push(entry);
  const std::string csv = journal.to_csv();
  const ReaderJournal parsed = ReaderJournal::from_csv(csv);
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_EQ(parsed.entries()[0].error->message, "lost frame; retry;later");
}

TEST(ReaderJournal, RejectsMalformedErrorRecords) {
  const std::string head = "# tagwatch-reader-journal v1\n";
  // X before any execute entry.
  EXPECT_THROW(ReaderJournal::from_csv(head + "X,timeout,0,boom\n"),
               std::invalid_argument);
  // Unknown kind name.
  EXPECT_THROW(
      ReaderJournal::from_csv(
          head + "E,0123456789abcdef,0,10,1,0,0,0,1,0,10,0\nX,melted,0,boom\n"),
      std::invalid_argument);
}

TEST(ReaderErrorKind, NameRoundTrip) {
  const std::vector<ReaderErrorKind> kinds = all_error_kinds();
  EXPECT_GE(kinds.size(), 5u);
  for (const ReaderErrorKind kind : kinds) {
    EXPECT_EQ(reader_error_kind_from_string(to_string(kind)), kind)
        << to_string(kind);
  }
  EXPECT_THROW(reader_error_kind_from_string("melted"), std::invalid_argument);
}

}  // namespace
}  // namespace tagwatch::llrp
