// Tests for the sliding-window IRR monitor.
#include <gtest/gtest.h>

#include "core/metrics.hpp"

namespace tagwatch::core {
namespace {

rf::TagReading reading(std::uint64_t serial, util::SimTime t) {
  rf::TagReading r;
  r.epc = util::Epc::from_serial(serial);
  r.timestamp = t;
  return r;
}

TEST(IrrMonitor, RejectsBadWindow) {
  EXPECT_THROW(IrrMonitor(util::SimDuration::zero()), std::invalid_argument);
}

TEST(IrrMonitor, CountsWithinWindow) {
  IrrMonitor m(util::sec(2));
  for (int i = 0; i < 10; ++i) m.record(reading(1, util::msec(i * 100)));
  // At t=1s, all 10 readings (0..900 ms) are inside the 2 s window.
  EXPECT_EQ(m.count_in_window(util::Epc::from_serial(1), util::sec(1)), 10u);
  EXPECT_DOUBLE_EQ(m.irr_hz(util::Epc::from_serial(1), util::sec(1)), 5.0);
  // At t=3s, only readings newer than 1 s remain: none.
  EXPECT_EQ(m.count_in_window(util::Epc::from_serial(1), util::sec(3)), 0u);
  EXPECT_DOUBLE_EQ(m.irr_hz(util::Epc::from_serial(1), util::sec(3)), 0.0);
}

TEST(IrrMonitor, UnknownTagIsZero) {
  IrrMonitor m;
  EXPECT_DOUBLE_EQ(m.irr_hz(util::Epc::from_serial(7), util::sec(1)), 0.0);
}

TEST(IrrMonitor, SnapshotSortedByRate) {
  IrrMonitor m(util::sec(10));
  for (int i = 0; i < 50; ++i) m.record(reading(1, util::msec(i * 100)));
  for (int i = 0; i < 10; ++i) m.record(reading(2, util::msec(i * 100)));
  const auto snap = m.snapshot(util::sec(5));
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, util::Epc::from_serial(1));
  EXPECT_GT(snap[0].second, snap[1].second);
}

TEST(IrrMonitor, SnapshotIgnoresInsertionOrderAndBucketCount) {
  // Tag k has (k % 4) + 1 readings, so most rates tie.  `a` records tag by
  // tag; `b` records round by round in reverse tag order, after 4,000
  // pruned tags grew its bucket array.
  IrrMonitor a(util::sec(10));
  IrrMonitor b(util::sec(10));
  for (std::uint64_t s = 10000; s < 14000; ++s) {
    b.record(reading(s, util::sec(1)));
  }
  ASSERT_EQ(b.prune(util::sec(20)), 4000u);
  const auto at = [](std::uint64_t i) {
    return util::sec(20) + util::msec(static_cast<std::int64_t>(i));
  };
  for (std::uint64_t k = 0; k < 200; ++k) {
    for (std::uint64_t i = 0; i <= k % 4; ++i) a.record(reading(k, at(i)));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    for (std::uint64_t k = 200; k-- > 0;) {
      if (i <= k % 4) b.record(reading(k, at(i)));
    }
  }
  const auto snap = a.snapshot(util::sec(21));
  ASSERT_EQ(snap.size(), 200u);
  EXPECT_EQ(snap, b.snapshot(util::sec(21)));
  for (std::size_t i = 1; i < snap.size(); ++i) {
    const auto& [prev_epc, prev_rate] = snap[i - 1];
    const auto& [epc, rate] = snap[i];
    EXPECT_TRUE(prev_rate > rate || (prev_rate == rate && prev_epc < epc))
        << "entry " << i;
  }
}

TEST(IrrMonitor, ActiveTagsAndPrune) {
  IrrMonitor m(util::sec(1));
  m.record(reading(1, util::msec(100)));
  m.record(reading(2, util::sec(10)));
  EXPECT_EQ(m.active_tags(util::sec(10)), 1u);
  // Tag 1's history predates the window at t=10 s: prune drops it.
  EXPECT_EQ(m.prune(util::sec(10)), 1u);
  EXPECT_EQ(m.active_tags(util::sec(10)), 1u);
  EXPECT_EQ(m.prune(util::sec(10)), 0u);
}

TEST(IrrMonitor, WindowBoundaryInclusive) {
  IrrMonitor m(util::sec(1));
  m.record(reading(1, util::sec(5)));
  // Reading exactly at now - window is included.
  EXPECT_EQ(m.count_in_window(util::Epc::from_serial(1), util::sec(6)), 1u);
  // Just past the boundary it ages out.
  EXPECT_EQ(m.count_in_window(util::Epc::from_serial(1),
                              util::sec(6) + util::msec(1)),
            0u);
}

}  // namespace
}  // namespace tagwatch::core
