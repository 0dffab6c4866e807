// Tests for Schedule → ROSpec/XML export (paper Fig. 11).
#include <gtest/gtest.h>

#include "core/schedule_export.hpp"
#include "llrp/rospec_xml.hpp"
#include "util/rng.hpp"

namespace tagwatch::core {
namespace {

Schedule make_schedule() {
  util::Rng rng(131);
  std::vector<util::Epc> scene;
  for (int i = 0; i < 30; ++i) scene.push_back(util::Epc::random(rng));
  BitmaskIndex index(scene);
  const auto targets = index.bitmap_of({scene[2], scene[9], scene[17]});
  return GreedyCoverScheduler(InventoryCostModel::paper_fit())
      .plan(index, targets);
}

TEST(ScheduleExport, OneAiSpecPerBitmask) {
  const Schedule schedule = make_schedule();
  ASSERT_FALSE(schedule.selections.empty());
  const llrp::ROSpec spec = schedule_to_rospec(schedule);
  ASSERT_EQ(spec.ai_specs.size(), schedule.selections.size());
  for (std::size_t i = 0; i < spec.ai_specs.size(); ++i) {
    const llrp::AISpec& ai = spec.ai_specs[i];
    ASSERT_EQ(ai.filters.size(), 1u);
    EXPECT_EQ(ai.filters[0].pointer, schedule.selections[i].bitmask.pointer);
    EXPECT_EQ(ai.filters[0].mask, schedule.selections[i].bitmask.mask);
    EXPECT_EQ(ai.filters[0].bank, gen2::MemBank::kEpc);
    // Initial Q sized to the expected covered population: 2^Q >= covered.
    EXPECT_GE(std::size_t{1} << ai.initial_q,
              schedule.selections[i].covered_total);
  }
}

TEST(ScheduleExport, OptionsAreApplied) {
  const Schedule schedule = make_schedule();
  ScheduleExportOptions opts;
  opts.rospec_id = 42;
  opts.session = gen2::Session::kS2;
  opts.antenna_indexes = {1, 3};
  opts.rounds_per_bitmask = 4;
  opts.loops = 7;
  const llrp::ROSpec spec = schedule_to_rospec(schedule, opts);
  EXPECT_EQ(spec.id, 42u);
  EXPECT_EQ(spec.loops, 7u);
  for (const auto& ai : spec.ai_specs) {
    EXPECT_EQ(ai.session, gen2::Session::kS2);
    EXPECT_EQ(ai.antenna_indexes, (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(ai.stop.kind, llrp::AiSpecStopTrigger::Kind::kRounds);
    EXPECT_EQ(ai.stop.rounds, 4u);
  }
}

TEST(ScheduleExport, XmlRoundTripsThroughParser) {
  // The XML is the exported ROSpec's, with one <AISpec> per selection
  // carrying that selection's mask, in schedule order.
  const Schedule schedule = make_schedule();
  const std::string xml = schedule_to_xml(schedule);
  EXPECT_EQ(xml, llrp::to_xml(schedule_to_rospec(schedule)));
  std::size_t pos = 0;
  for (const auto& sel : schedule.selections) {
    pos = xml.find("<AISpec ", pos);
    ASSERT_NE(pos, std::string::npos);
    const std::string mask =
        "<Mask>" + sel.bitmask.mask.to_binary_string() + "</Mask>";
    pos = xml.find(mask, pos);
    ASSERT_NE(pos, std::string::npos) << mask;
  }
  EXPECT_EQ(xml.find("<AISpec ", pos), std::string::npos);
}

TEST(ScheduleExport, EmptyScheduleYieldsEmptyRospec) {
  Schedule empty;
  const llrp::ROSpec spec = schedule_to_rospec(empty);
  EXPECT_TRUE(spec.ai_specs.empty());
}

}  // namespace
}  // namespace tagwatch::core
