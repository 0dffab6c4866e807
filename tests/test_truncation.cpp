// Tests for Gen2 Select truncation (shortened EPC replies).
#include <gtest/gtest.h>

#include "core/tagwatch.hpp"
#include "llrp/sim_reader_client.hpp"
#include "gen2/reader.hpp"
#include "llrp/rospec_xml.hpp"
#include "util/circular.hpp"

namespace tagwatch {
namespace {

TEST(Truncation, SelectArmsAndDisarms) {
  gen2::TagFlags flags;
  gen2::SelectCommand cmd;
  cmd.pointer = 4;
  cmd.mask = util::BitString::from_binary("1010");
  cmd.truncate = true;
  gen2::apply_select_action(cmd, /*matched=*/true, flags);
  EXPECT_EQ(flags.truncate_from, 8u);  // pointer + mask length
  // A later non-truncating Select disarms it.
  cmd.truncate = false;
  gen2::apply_select_action(cmd, true, flags);
  EXPECT_EQ(flags.truncate_from, gen2::TagFlags::kNoTruncate);
  // A truncating Select that does NOT match also disarms.
  cmd.truncate = true;
  gen2::apply_select_action(cmd, /*matched=*/false, flags);
  EXPECT_EQ(flags.truncate_from, gen2::TagFlags::kNoTruncate);
}

TEST(Truncation, ShortensSelectiveRounds) {
  // 5 selected tags sharing a short prefix: with Truncate, each success
  // slot carries ~8 EPC bits instead of 96, so the round is faster.
  auto run = [](bool truncate) {
    sim::World world;
    util::Rng rng(401);
    for (std::size_t i = 0; i < 5; ++i) {
      sim::SimTag t;
      // EPCs 0x00...0i: a Select on the first 88 bits covers all five.
      t.epc = util::Epc::from_serial(i + 1);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      world.add_tag(std::move(t));
    }
    rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
    gen2::Gen2Reader reader(
        gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
        gen2::ReaderConfig{}, world, channel, {{1, {0, 0, 2}, 8.0}},
        util::Rng(402));
    gen2::SelectCommand sel;
    sel.target = gen2::SelectTarget::kSessionS1;
    sel.action = gen2::SelectAction::kAssertMatchedDeassertElse;
    sel.pointer = 0;
    sel.mask = util::BitString(88);  // all-zero 88-bit prefix
    sel.truncate = truncate;
    reader.transmit_select(sel);
    gen2::QueryCommand q;
    q.session = gen2::Session::kS1;
    q.target = gen2::InvFlag::kA;
    q.q = 3;
    std::size_t reads = 0;
    const auto stats = reader.run_inventory_round(
        q, [&reads](const rf::TagReading& r) {
          ++reads;
          EXPECT_EQ(r.epc.size(), 96u);  // reader reports the full EPC
        });
    EXPECT_EQ(reads, 5u);
    return stats.duration;
  };
  const auto full = run(false);
  const auto truncated = run(true);
  // Each success saves (96-8) bits × 6.25 µs ≈ 550 µs → ≥ 2 ms over 5 tags.
  EXPECT_LT(truncated + util::msec(2), full);
}

TEST(Truncation, TagwatchOptionSpeedsPhase2) {
  auto mover_irr = [](bool truncate) {
    sim::World world;
    util::Rng rng(403);
    std::vector<util::Epc> movers;
    for (std::size_t i = 0; i < 30; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::random(rng);
      if (i < 2) {
        t.motion = std::make_shared<sim::CircularTrack>(
            util::Vec3{0.5, 0.5, 0}, 0.2, 0.7, static_cast<double>(i));
        movers.push_back(t.epc);
      } else {
        t.motion = std::make_shared<sim::StaticMotion>(
            util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      }
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
    rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
    llrp::SimReaderClient client(
        gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
        gen2::ReaderConfig{}, world, channel,
        {{1, {-5, -5, 0}, 8.0}, {2, {5, 5, 0}, 8.0}}, 404);
    core::TagwatchConfig cfg;
    cfg.phase2_duration = util::sec(2);
    cfg.use_truncation = truncate;
    core::TagwatchController ctl(cfg, client);
    const auto reports = ctl.run_cycles(10);
    double reads = 0.0, secs = 0.0;
    for (std::size_t c = 5; c < reports.size(); ++c) {
      secs += util::to_seconds(reports[c].phase2_duration);
      for (const auto& [epc, count] : reports[c].phase2_counts) {
        for (const auto& m : movers) {
          if (m == epc) reads += static_cast<double>(count);
        }
      }
    }
    return reads / 2.0 / secs;
  };
  const double plain = mover_irr(false);
  const double truncated = mover_irr(true);
  // Shorter replies → more rounds per Phase II → higher IRR.  The margin
  // is modest because τ0 dominates short selective rounds.
  EXPECT_GT(truncated, plain * 1.02);
}

TEST(Truncation, XmlRoundTripsTruncateBit) {
  llrp::ROSpec spec;
  llrp::AISpec ai;
  llrp::C1G2Filter f{gen2::MemBank::kEpc, 3,
                     util::BitString::from_binary("110")};
  f.truncate = true;
  ai.filters.push_back(f);
  spec.ai_specs.push_back(ai);
  EXPECT_EQ(llrp::to_xml(spec),
            "<ROSpec id=\"1\" priority=\"0\" loops=\"1\">\n"
            "  <AISpec session=\"1\" initialQ=\"4\">\n"
            "    <Antennas></Antennas>\n"
            "    <C1G2Filter bank=\"1\" pointer=\"3\" truncate=\"1\">\n"
            "      <Mask>110</Mask>\n"
            "    </C1G2Filter>\n"
            "    <StopTrigger kind=\"rounds\" rounds=\"1\"/>\n"
            "  </AISpec>\n"
            "</ROSpec>\n");
}

}  // namespace
}  // namespace tagwatch
