// Gen2 session semantics: S0–S3 persistence windows (Gen2 Table 6.20),
// A/B inventoried targets, lazy decay, power-loss behavior of departed
// tags, and the dense TagFlagField mirror validated against the EPC-keyed
// FlagStore oracle at 1/2/4 readers.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "gen2/flag_field.hpp"
#include "gen2/reader.hpp"
#include "gen2/tag_runtime.hpp"
#include "oracle/flag_store.hpp"
#include "util/circular.hpp"

namespace tagwatch::gen2 {
namespace {

// ----------------------------------------------------------- SessionTiming

TEST(SessionTiming, S1WindowClampsToSpecBounds) {
  SessionTiming t;
  t.s1_persistence = util::msec(100);  // below the 500 ms floor
  EXPECT_EQ(t.s1_effective(), SessionTiming::kS1Min);
  t.s1_persistence = util::sec(60);  // above the 5 s ceiling
  EXPECT_EQ(t.s1_effective(), SessionTiming::kS1Max);
  t.s1_persistence = util::sec(2);  // in range: untouched
  EXPECT_EQ(t.s1_effective(), util::sec(2));
  t.s1_persistence = SessionTiming::kForever;  // disabled: stays disabled
  EXPECT_EQ(t.s1_effective(), SessionTiming::kForever);
}

TEST(SessionTiming, PresetsMatchTheSpecTable) {
  const SessionTiming legacy = SessionTiming::persistent();
  EXPECT_EQ(legacy.s0_persistence, SessionTiming::kForever);
  EXPECT_EQ(legacy.s1_persistence, SessionTiming::kForever);
  EXPECT_EQ(legacy.depowered_persistence, SessionTiming::kForever);

  const SessionTiming spec = SessionTiming::spec_default();
  EXPECT_EQ(spec.s0_persistence, util::SimDuration::zero());
  EXPECT_EQ(spec.s1_persistence, util::sec(2));
  EXPECT_EQ(spec.depowered_persistence, util::sec(2));
}

// ----------------------------------------------------------- TagFlags decay

TEST(TagFlags, S1BFlagDecaysBackToAAfterItsWindow) {
  const SessionTiming timing = SessionTiming::spec_default();  // S1: 2 s
  TagFlags f;
  const util::SimTime set_at = util::SimTime{util::sec(1).count()};
  f.set_session_flag(Session::kS1, InvFlag::kB, set_at, timing);

  // Inside the window the flag presents B; at/after the deadline it reads
  // A without any explicit reset (lazy decay).
  EXPECT_EQ(f.session_flag_at(Session::kS1, set_at), InvFlag::kB);
  EXPECT_EQ(f.session_flag_at(Session::kS1, set_at + util::msec(1999)),
            InvFlag::kB);
  EXPECT_EQ(f.session_flag_at(Session::kS1, set_at + util::sec(2)),
            InvFlag::kA);
  EXPECT_EQ(f.session_flag_at(Session::kS1, set_at + util::sec(60)),
            InvFlag::kA);
}

TEST(TagFlags, OnlyS1DecaysWhilePowered) {
  const SessionTiming timing = SessionTiming::spec_default();
  TagFlags f;
  const util::SimTime t0{0};
  for (const Session s :
       {Session::kS0, Session::kS2, Session::kS3}) {
    f.set_session_flag(s, InvFlag::kB, t0, timing);
    EXPECT_EQ(f.session_flag_at(s, t0 + util::sec(3600)), InvFlag::kB)
        << to_string(s);
  }
}

TEST(TagFlags, AWritesNeverCarryADecayDeadline) {
  const SessionTiming timing = SessionTiming::spec_default();
  TagFlags f;
  f.set_session_flag(Session::kS1, InvFlag::kB, util::SimTime{0}, timing);
  f.set_session_flag(Session::kS1, InvFlag::kA, util::SimTime{0}, timing);
  EXPECT_EQ(f.decay_at[1], TagFlags::kNever);
  EXPECT_EQ(f.session_flag_at(Session::kS1, util::SimTime{util::sec(9).count()}),
            InvFlag::kA);
}

TEST(TagFlags, ToggleActsOnTheDecayedValue) {
  const SessionTiming timing = SessionTiming::spec_default();
  TagFlags f;
  const util::SimTime t0{0};
  f.set_session_flag(Session::kS1, InvFlag::kB, t0, timing);

  // After the window the flag *presents* A, so an ACK toggle flips it to
  // B (with a fresh deadline), not back to A.
  const util::SimTime later = t0 + util::sec(3);
  f.toggle_session_flag(Session::kS1, later, timing);
  EXPECT_EQ(f.session_flag_at(Session::kS1, later), InvFlag::kB);
  EXPECT_EQ(f.session_flag_at(Session::kS1, later + util::sec(2)),
            InvFlag::kA);
}

TEST(TagFlags, PowerCycleAppliesThePersistenceTable) {
  const SessionTiming timing = SessionTiming::spec_default();
  TagFlags f;
  const util::SimTime t0{0};
  for (const Session s : {Session::kS0, Session::kS1, Session::kS2,
                          Session::kS3}) {
    f.set_session_flag(s, InvFlag::kB, t0, timing);
  }

  // Short outage (0.5 s < 2 s): S0 resets immediately (zero persistence),
  // S2/S3 survive, S1 keeps its own deadline.
  TagFlags short_gap = f;
  const util::SimTime departed = t0 + util::sec(1);
  short_gap.power_cycle(departed, departed + util::msec(500), timing);
  EXPECT_EQ(short_gap.session_flag(Session::kS0), InvFlag::kA);
  EXPECT_EQ(short_gap.session_flag(Session::kS2), InvFlag::kB);
  EXPECT_EQ(short_gap.session_flag(Session::kS3), InvFlag::kB);

  // Long outage (3 s > 2 s): S2/S3 reset too.
  TagFlags long_gap = f;
  long_gap.power_cycle(departed, departed + util::sec(3), timing);
  EXPECT_EQ(long_gap.session_flag(Session::kS2), InvFlag::kA);
  EXPECT_EQ(long_gap.session_flag(Session::kS3), InvFlag::kA);

  // Zero-length gap: a reindex stash that never de-energized the tag must
  // pass through unchanged, S0 included.
  TagFlags no_gap = f;
  no_gap.power_cycle(departed, departed, timing);
  EXPECT_EQ(no_gap.session_flag(Session::kS0), InvFlag::kB);
}

TEST(TagFlags, PersistentTimingIsImmortalThroughAPowerCycle) {
  const SessionTiming timing = SessionTiming::persistent();
  TagFlags f;
  for (const Session s : {Session::kS0, Session::kS1, Session::kS2,
                          Session::kS3}) {
    f.set_session_flag(s, InvFlag::kB, util::SimTime{0}, timing);
  }
  f.power_cycle(util::SimTime{0}, util::SimTime{util::sec(3600).count()},
                timing);
  for (const Session s : {Session::kS0, Session::kS1, Session::kS2,
                          Session::kS3}) {
    EXPECT_EQ(f.session_flag_at(s, util::SimTime{util::sec(7200).count()}),
              InvFlag::kB)
        << to_string(s);
  }
}

// -------------------------------------------------------- reader fixtures

struct SessionBed {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::china_920_926()};
  std::vector<rf::Antenna> antennas{{1, {0, 0, 2}, 8.0}};
  std::shared_ptr<TagFlagField> field;
  std::vector<std::unique_ptr<Gen2Reader>> readers;

  SessionBed(std::size_t n_tags, std::size_t n_readers,
             SessionTiming timing = SessionTiming::spec_default(),
             std::uint64_t seed = 33) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(i + 1);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    field = std::make_shared<TagFlagField>(timing);
    for (std::size_t r = 0; r < n_readers; ++r) {
      readers.push_back(std::make_unique<Gen2Reader>(
          LinkTiming(LinkParams::max_throughput()), ReaderConfig{}, world,
          channel, antennas, util::Rng(seed + 1 + r), field));
    }
  }

  std::size_t run_round(std::size_t reader, QueryCommand q) {
    std::size_t reads = 0;
    readers[reader]->run_inventory_round(
        q, [&reads](const rf::TagReading&) { ++reads; });
    return reads;
  }
};

TEST(Gen2Sessions, SharedFieldMakesReadersSeeEachOthersFlips) {
  SessionBed bed(12, 2);
  QueryCommand q;
  q.session = Session::kS2;
  q.target = InvFlag::kA;
  // Reader 0 flips everyone to B in S2; reader 1 queries the same session
  // a moment later and finds nobody left on A — the tags coordinated the
  // two readers.
  EXPECT_EQ(bed.run_round(0, q), 12u);
  EXPECT_EQ(bed.run_round(1, q), 0u);
  // The B population answers reader 1 when it targets B.
  q.target = InvFlag::kB;
  EXPECT_EQ(bed.run_round(1, q), 12u);
}

TEST(Gen2Sessions, PrivateFieldsKeepReadersIndependent) {
  // Two readers over one world but *separate* fields (the pre-fleet
  // construction): reader 1 re-reads everything reader 0 already flipped.
  SessionBed bed(10, 0);
  for (std::size_t r = 0; r < 2; ++r) {
    bed.readers.push_back(std::make_unique<Gen2Reader>(
        LinkTiming(LinkParams::max_throughput()), ReaderConfig{}, bed.world,
        bed.channel, bed.antennas, util::Rng(100 + r)));
  }
  QueryCommand q;
  q.session = Session::kS2;
  EXPECT_EQ(bed.run_round(0, q), 10u);
  EXPECT_EQ(bed.run_round(1, q), 10u);
}

TEST(Gen2Sessions, SelectFlipsABTargetsMidInventorySequence) {
  SessionBed bed(16, 1);
  QueryCommand q;
  q.session = Session::kS2;
  q.target = InvFlag::kA;
  EXPECT_EQ(bed.run_round(0, q), 16u);  // everyone now B

  // A Select on the S2 inventoried flag re-asserts A for the odd serials
  // (EPC bit 95 set) and confirms B for the rest — the A/B population is
  // repartitioned mid-sequence without touching SL.
  SelectCommand sel;
  sel.target = SelectTarget::kSessionS2;
  sel.action = SelectAction::kAssertMatchedDeassertElse;
  sel.pointer = 95;
  sel.mask = util::BitString::from_binary("1");
  bed.readers[0]->transmit_select(sel);

  EXPECT_EQ(bed.run_round(0, q), 8u);  // the odd half answers A again
  q.target = InvFlag::kB;
  EXPECT_EQ(bed.run_round(0, q), 16u);  // odd half toggled back + even half
}

TEST(Gen2Sessions, S1InventoryDecaysBackWithinTheSpecWindow) {
  SessionTiming timing;
  timing.s1_persistence = util::sec(1);  // inside [500 ms, 5 s]: used as-is
  SessionBed bed(8, 1, timing);
  QueryCommand q;
  q.session = Session::kS1;
  EXPECT_EQ(bed.run_round(0, q), 8u);
  // Immediately after the round the flags hold B...
  EXPECT_EQ(bed.run_round(0, q), 0u);
  // ...but once the S1 window elapses the whole population presents A
  // again, with no reader intervention.
  bed.world.advance(util::sec(2));
  EXPECT_EQ(bed.run_round(0, q), 8u);
}

TEST(Gen2Sessions, S1RequestBelowTheFloorStillHoldsHalfASecond) {
  SessionTiming timing;
  timing.s1_persistence = util::msec(50);  // clamped up to 500 ms
  SessionBed bed(6, 1, timing);
  QueryCommand q;
  q.session = Session::kS1;
  EXPECT_EQ(bed.run_round(0, q), 6u);
  bed.world.advance(util::msec(100));  // < 500 ms: still held
  EXPECT_EQ(bed.run_round(0, q), 0u);
  bed.world.advance(util::msec(600));  // past the floor: decayed
  EXPECT_EQ(bed.run_round(0, q), 6u);
}

// ------------------------------------------- departed-tag re-entry (stash)

TEST(Gen2Sessions, ReenteringTagKeepsS2S3ThroughAShortOutage) {
  SessionBed bed(5, 1);
  QueryCommand q;
  q.session = Session::kS2;
  EXPECT_EQ(bed.run_round(0, q), 5u);

  const util::Epc epc = util::Epc::from_serial(1);
  ASSERT_TRUE(bed.world.remove_tag(epc));
  bed.world.advance(util::msec(800));  // outage < 2 s depowered window

  sim::SimTag back;
  back.epc = epc;
  back.motion = std::make_shared<sim::StaticMotion>(util::Vec3{0.5, 0.5, 0});
  bed.world.add_tag(std::move(back));

  const TagFlags* flags = bed.readers[0]->find_flags(epc);
  ASSERT_NE(flags, nullptr);
  EXPECT_EQ(flags->session_flag_at(Session::kS2, bed.world.now()),
            InvFlag::kB);
}

TEST(Gen2Sessions, ReenteringTagLosesItsFlagsAfterALongOutage) {
  SessionBed bed(5, 1);
  QueryCommand q;
  q.session = Session::kS2;
  EXPECT_EQ(bed.run_round(0, q), 5u);

  const util::Epc epc = util::Epc::from_serial(2);
  ASSERT_TRUE(bed.world.remove_tag(epc));
  bed.world.advance(util::sec(3));  // outage > 2 s: S2 resets

  sim::SimTag back;
  back.epc = epc;
  back.motion = std::make_shared<sim::StaticMotion>(util::Vec3{0.5, 0.5, 0});
  bed.world.add_tag(std::move(back));

  const TagFlags* flags = bed.readers[0]->find_flags(epc);
  ASSERT_NE(flags, nullptr);
  EXPECT_EQ(flags->session_flag_at(Session::kS2, bed.world.now()),
            InvFlag::kA);
  // And the re-entered tag participates in the next A-targeted round.
  EXPECT_EQ(bed.run_round(0, q), 1u);
}

TEST(Gen2Sessions, ReindexStashWithoutDepartureIsLossless) {
  // Removing tag X reindexes tag Y's dense slot without ever de-energizing
  // Y: the stash/restore round trip must not reset Y's S0 flag even though
  // S0 has zero persistence.
  SessionBed bed(6, 1);
  QueryCommand q;
  q.session = Session::kS0;
  EXPECT_EQ(bed.run_round(0, q), 6u);

  ASSERT_TRUE(bed.world.remove_tag(util::Epc::from_serial(1)));
  bed.world.advance(util::sec(10));

  for (std::size_t serial = 2; serial <= 6; ++serial) {
    const TagFlags* flags =
        bed.readers[0]->find_flags(util::Epc::from_serial(serial));
    ASSERT_NE(flags, nullptr) << "serial " << serial;
    EXPECT_EQ(flags->session_flag_at(Session::kS0, bed.world.now()),
              InvFlag::kB)
        << "serial " << serial;
  }
}

// -------------------------------------- differential FlagStore oracle

/// Drives `n_readers` readers over one shared field with a deterministic
/// mix of Selects and inventory rounds, mirroring every flag-changing
/// event into the EPC-keyed FlagStore oracle, and compares the dense
/// mirror against the oracle after every operation.
void run_oracle_differential(std::size_t n_readers) {
  constexpr std::size_t kTags = 12;
  const SessionTiming timing = SessionTiming::spec_default();
  SessionBed bed(kTags, n_readers, timing, /*seed=*/71);

  std::vector<util::Epc> epcs;
  for (std::size_t i = 0; i < kTags; ++i) {
    epcs.push_back(util::Epc::from_serial(i + 1));
  }
  oracle::FlagStore oracle;

  const auto check = [&](const char* where) {
    const util::SimTime now = bed.world.now();
    for (const util::Epc& epc : epcs) {
      const TagFlags* mirror = bed.field->find(bed.world, epc);
      ASSERT_NE(mirror, nullptr) << where;
      const TagFlags& expect = oracle[epc];
      EXPECT_EQ(mirror->sl, expect.sl) << where << " " << epc.to_hex();
      for (const Session s : {Session::kS0, Session::kS1, Session::kS2,
                              Session::kS3}) {
        EXPECT_EQ(mirror->session_flag_at(s, now),
                  expect.session_flag_at(s, now))
            << where << " " << epc.to_hex() << " " << to_string(s);
      }
    }
  };

  // Every tag starts at the power-up state on both sides.
  check("initial");

  for (std::size_t cycle = 0; cycle < 4; ++cycle) {
    for (std::size_t r = 0; r < n_readers; ++r) {
      // A Select whose target/action vary deterministically with the
      // (cycle, reader) pair.
      SelectCommand sel;
      sel.target = static_cast<SelectTarget>((cycle + r) % 5);
      sel.action = (cycle % 2 == 0)
                       ? SelectAction::kAssertMatchedDeassertElse
                       : SelectAction::kToggleMatched;
      sel.pointer = 95;
      sel.mask = util::BitString::from_binary(r % 2 == 0 ? "1" : "0");
      bed.readers[r]->transmit_select(sel);
      // The Select lands on every in-field tag at the post-airtime clock.
      oracle.broadcast_select(sel, epcs, bed.world.now(), timing);
      check("after select");

      // An inventory round in this reader's session; every ACKed tag
      // toggles its flag at the reading's timestamp (the ACK instant).
      QueryCommand q;
      q.session = static_cast<Session>(r % 4);
      q.target = (cycle % 2 == 0) ? InvFlag::kA : InvFlag::kB;
      bed.readers[r]->run_inventory_round(
          q, [&](const rf::TagReading& reading) {
            oracle[reading.epc].toggle_session_flag(q.session,
                                                    reading.timestamp, timing);
          });
      check("after round");
    }
    bed.world.advance(util::msec(700));  // let some S1 deadlines pass
    check("after idle");
  }
}

TEST(Gen2Sessions, DenseMirrorMatchesFlagStoreOracleOneReader) {
  run_oracle_differential(1);
}

TEST(Gen2Sessions, DenseMirrorMatchesFlagStoreOracleTwoReaders) {
  run_oracle_differential(2);
}

TEST(Gen2Sessions, DenseMirrorMatchesFlagStoreOracleFourReaders) {
  run_oracle_differential(4);
}

}  // namespace
}  // namespace tagwatch::gen2
