// Tests for ROSpec structures, the XML export, and the SimReaderClient.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "llrp/journal_codec.hpp"
#include "llrp/reader_journal.hpp"
#include "llrp/rospec.hpp"
#include "llrp/rospec_xml.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"

namespace tagwatch::llrp {
namespace {

ROSpec sample_rospec() {
  ROSpec spec;
  spec.id = 7;
  spec.priority = 2;
  spec.loops = 3;
  AISpec ai;
  ai.antenna_indexes = {0, 2};
  ai.session = gen2::Session::kS2;
  ai.initial_q = 5;
  ai.stop = AiSpecStopTrigger::after_duration(util::msec(5000));
  ai.filters.push_back(
      {gen2::MemBank::kEpc, 3, util::BitString::from_binary("1101")});
  ai.filters.push_back(
      {gen2::MemBank::kEpc, 10, util::BitString::from_binary("01")});
  spec.ai_specs.push_back(ai);
  AISpec plain;
  plain.stop = AiSpecStopTrigger::after_rounds(4);
  // Fleet extensions, which to_xml writes only when non-default.
  plain.target = gen2::InvFlag::kB;
  plain.rearm_session = false;
  spec.ai_specs.push_back(plain);
  return spec;
}

TEST(RospecXml, RoundTripPreservesEverything) {
  // to_xml is export-only, and its bytes feed rospec_digest: pin the exact
  // text, every field of both AISpec shapes included.
  EXPECT_EQ(to_xml(sample_rospec()),
            "<ROSpec id=\"7\" priority=\"2\" loops=\"3\">\n"
            "  <AISpec session=\"2\" initialQ=\"5\">\n"
            "    <Antennas>0,2</Antennas>\n"
            "    <C1G2Filter bank=\"1\" pointer=\"3\">\n"
            "      <Mask>1101</Mask>\n"
            "    </C1G2Filter>\n"
            "    <C1G2Filter bank=\"1\" pointer=\"10\">\n"
            "      <Mask>01</Mask>\n"
            "    </C1G2Filter>\n"
            "    <StopTrigger kind=\"duration\" ms=\"5000\"/>\n"
            "  </AISpec>\n"
            "  <AISpec session=\"1\" initialQ=\"4\" target=\"B\" "
            "rearm=\"0\">\n"
            "    <Antennas></Antennas>\n"
            "    <StopTrigger kind=\"rounds\" rounds=\"4\"/>\n"
            "  </AISpec>\n"
            "</ROSpec>\n");
}

TEST(RospecXml, DigestHashesTheXmlBytes) {
  std::vector<ROSpec> specs;
  specs.push_back(sample_rospec());  // target/rearm, no antennas, rounds.
  specs.push_back(ROSpec{});         // No AISpec at all.
  ROSpec wide;
  wide.id = 4294967295u;
  wide.priority = 255;
  wide.loops = 12;
  AISpec ai;
  ai.antenna_indexes = {3};
  ai.stop = AiSpecStopTrigger::after_duration(util::usec(1234567));
  util::Rng rng(5);
  ai.filters.push_back({gen2::MemBank::kEpc, 0,
                        util::Epc::random(rng).bits(), /*truncate=*/true});
  wide.ai_specs.push_back(ai);
  ai.stop = AiSpecStopTrigger::after_rounds(1000000);
  ai.filters.clear();
  wide.ai_specs.push_back(ai);
  specs.push_back(wide);
  EXPECT_NE(to_xml(wide).find(" truncate=\"1\""), std::string::npos);
  EXPECT_NE(to_xml(wide).find(" ms=\"1234.57\"/>"), std::string::npos);
  EXPECT_NE(to_xml(wide).find(" rounds=\"1000000\"/>"), std::string::npos);
  for (const ROSpec& spec : specs) {
    EXPECT_EQ(rospec_digest(spec), journal_codec::fnv1a(to_xml(spec)));
  }
}

TEST(RospecXml, DurationsFormatLikePrintfSixSignificantDigits) {
  for (const std::int64_t us :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{1500},
        std::int64_t{1234567}, std::int64_t{999999500},
        std::int64_t{1000000000000}}) {
    ROSpec spec;
    AISpec ai;
    ai.stop = AiSpecStopTrigger::after_duration(util::usec(us));
    spec.ai_specs.push_back(ai);
    char expected[64];
    std::snprintf(expected, sizeof(expected), " ms=\"%.6g\"/>",
                  static_cast<double>(us) / 1e3);
    EXPECT_NE(to_xml(spec).find(expected), std::string::npos) << expected;
    EXPECT_EQ(rospec_digest(spec), journal_codec::fnv1a(to_xml(spec)));
  }
}

// ----------------------------------------------------- SimReaderClient

struct ClientFixture {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::china_920_926()};
  std::vector<rf::Antenna> antennas{{1, {0, 0, 2}, 8.0}, {2, {2, 0, 2}, 8.0}};
  std::optional<SimReaderClient> client;

  explicit ClientFixture(std::size_t n_tags) {
    util::Rng rng(111);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(i + 1);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    client.emplace(gen2::LinkTiming(gen2::LinkParams::max_throughput()),
                   gen2::ReaderConfig{}, world, channel, antennas, 7);
  }
};

TEST(SimReaderClient, UnfilteredRoundsReadAllRepeatedly) {
  ClientFixture fx(12);
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(4);
  spec.ai_specs.push_back(ai);
  const ExecutionReport report = fx.client->execute(spec).report;
  EXPECT_EQ(report.rounds, 4u);
  // Dual-target alternation: every round reads all 12 tags.
  EXPECT_EQ(report.readings.size(), 48u);
  EXPECT_EQ(report.slot_totals.success_slots, 48u);
}

TEST(SimReaderClient, AntennaCyclingAcrossRounds) {
  ClientFixture fx(4);
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(4);  // both antennas, twice
  spec.ai_specs.push_back(ai);
  const auto report = fx.client->execute(spec).report;
  std::set<rf::AntennaId> used;
  for (const auto& r : report.readings) used.insert(r.antenna);
  EXPECT_EQ(used.size(), 2u);
}

TEST(SimReaderClient, FilterRestrictsAndRepeats) {
  ClientFixture fx(16);
  ROSpec spec;
  AISpec ai;
  ai.filters.push_back({gen2::MemBank::kEpc, 95,
                        util::BitString::from_binary("1")});  // odd serials
  ai.stop = AiSpecStopTrigger::after_rounds(6);
  spec.ai_specs.push_back(ai);
  const auto report = fx.client->execute(spec).report;
  // 8 odd tags × 6 rounds: Select re-arms the session flag each round.
  EXPECT_EQ(report.readings.size(), 48u);
  for (const auto& r : report.readings) {
    EXPECT_TRUE(r.epc.bits().bit(95)) << r.epc.to_hex();
  }
}

TEST(SimReaderClient, ConjunctiveFiltersIntersect) {
  ClientFixture fx(16);
  ROSpec spec;
  AISpec ai;
  // serial bit95 == 1 AND bit94 == 1 → serials ≡ 3 (mod 4): 3,7,11,15.
  ai.filters.push_back(
      {gen2::MemBank::kEpc, 95, util::BitString::from_binary("1")});
  ai.filters.push_back(
      {gen2::MemBank::kEpc, 94, util::BitString::from_binary("1")});
  ai.stop = AiSpecStopTrigger::after_rounds(1);
  spec.ai_specs.push_back(ai);
  const auto report = fx.client->execute(spec).report;
  EXPECT_EQ(report.readings.size(), 4u);
}

TEST(SimReaderClient, DurationStopTriggerBoundsTime) {
  ClientFixture fx(10);
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_duration(util::msec(500));
  spec.ai_specs.push_back(ai);
  const auto t0 = fx.client->now();
  const auto report = fx.client->execute(spec).report;
  const auto elapsed = fx.client->now() - t0;
  EXPECT_GE(elapsed, util::msec(500));
  // Overshoot bounded by one round (tens of ms at this scale).
  EXPECT_LT(elapsed, util::msec(700));
  EXPECT_GT(report.rounds, 5u);
}

TEST(SimReaderClient, LoopsRepeatAiSpecList) {
  ClientFixture fx(5);
  ROSpec spec;
  spec.loops = 3;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(2);
  spec.ai_specs.push_back(ai);
  const auto report = fx.client->execute(spec).report;
  EXPECT_EQ(report.rounds, 6u);
}

TEST(SimReaderClient, ListenerStreamsEveryReading) {
  ClientFixture fx(6);
  std::size_t streamed = 0;
  fx.client->set_read_listener(
      [&streamed](const rf::TagReading&) { ++streamed; });
  ROSpec spec;
  AISpec ai;
  ai.stop = AiSpecStopTrigger::after_rounds(2);
  spec.ai_specs.push_back(ai);
  const auto report = fx.client->execute(spec).report;
  EXPECT_EQ(streamed, report.readings.size());
}

TEST(SimReaderClient, ExplicitAntennaSelection) {
  ClientFixture fx(4);
  ROSpec spec;
  AISpec ai;
  ai.antenna_indexes = {1};
  ai.stop = AiSpecStopTrigger::after_rounds(3);
  spec.ai_specs.push_back(ai);
  const auto report = fx.client->execute(spec).report;
  for (const auto& r : report.readings) EXPECT_EQ(r.antenna, 2);
}

}  // namespace
}  // namespace tagwatch::llrp
