// Tests for the TrackPoint trace generator (scaled-down scenarios).
#include <gtest/gtest.h>

#include "trace/trackpoint.hpp"

#include "util/stats.hpp"

namespace tagwatch::trace {
namespace {

TrackPointScenario small_scenario() {
  TrackPointScenario s;
  s.duration = util::sec(120);  // 2 minutes keeps tests fast
  s.conveyor_arrivals_per_min = 6.0;
  s.parked_slots = 6;
  s.parked_dwell_min = util::sec(30);
  s.parked_dwell_max = util::sec(90);
  return s;
}

TEST(TrackPoint, GeneratesPopulatedTrace) {
  const TraceResult result = generate_trackpoint_trace(small_scenario());
  EXPECT_GT(result.total_tags, 10u);
  EXPECT_GT(result.total_readings, 1000u);
  EXPECT_GE(result.peak_concurrent_movers, 1u);
  EXPECT_EQ(result.readings_per_minute.size(), 3u);
  // Total readings must equal the sum of per-tag counts.
  std::size_t sum = 0;
  for (const auto& t : result.per_tag) sum += t.readings;
  EXPECT_EQ(sum, result.total_readings);
  // per_tag is ordered by readings, then by EPC: never by hash order.
  for (std::size_t i = 1; i < result.per_tag.size(); ++i) {
    const TraceTagRecord& prev = result.per_tag[i - 1];
    const TraceTagRecord& t = result.per_tag[i];
    EXPECT_TRUE(prev.readings > t.readings ||
                (prev.readings == t.readings && prev.epc < t.epc))
        << "entry " << i;
  }
}

TEST(TrackPoint, ParkedTagsDominateReadings) {
  // The paper's skew mechanism: parked tags hog the channel while conveyor
  // tags get only a handful of reads during their transit.
  const TraceResult result = generate_trackpoint_trace(small_scenario());
  ASSERT_FALSE(result.per_tag.empty());
  // per_tag is sorted descending: the top readers should be parked tags.
  std::size_t parked_in_top5 = 0;
  const std::size_t top5 = std::min<std::size_t>(5, result.per_tag.size());
  for (std::size_t i = 0; i < top5; ++i) {
    if (!result.per_tag[i].conveyor) ++parked_in_top5;
  }
  EXPECT_GE(parked_in_top5, 4u);

  // Median conveyor tag gets far fewer reads than median parked tag.
  std::vector<double> conveyor_counts, parked_counts;
  for (const auto& t : result.per_tag) {
    (t.conveyor ? conveyor_counts : parked_counts)
        .push_back(static_cast<double>(t.readings));
  }
  ASSERT_FALSE(conveyor_counts.empty());
  ASSERT_FALSE(parked_counts.empty());
  EXPECT_LT(util::median(conveyor_counts), util::median(parked_counts) / 5.0);
}

TEST(TrackPoint, FractionReadOverIsMonotone) {
  const TraceResult result = generate_trackpoint_trace(small_scenario());
  const double f10 = fraction_read_over(result, 10);
  const double f100 = fraction_read_over(result, 100);
  const double f1000 = fraction_read_over(result, 1000);
  EXPECT_GE(f10, f100);
  EXPECT_GE(f100, f1000);
  EXPECT_LE(f10, 1.0);
  EXPECT_GE(f1000, 0.0);
}

TEST(TrackPoint, DeterministicForFixedSeed) {
  TrackPointScenario s = small_scenario();
  s.duration = util::sec(30);
  const TraceResult a = generate_trackpoint_trace(s);
  const TraceResult b = generate_trackpoint_trace(s);
  EXPECT_EQ(a.total_readings, b.total_readings);
  EXPECT_EQ(a.total_tags, b.total_tags);
  s.seed = 43;
  const TraceResult c = generate_trackpoint_trace(s);
  EXPECT_NE(a.total_readings, c.total_readings);
}

}  // namespace
}  // namespace tagwatch::trace
