// Tests for the reading-history database.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/history.hpp"

namespace tagwatch::core {
namespace {

rf::TagReading reading(std::uint64_t serial, util::SimTime t) {
  rf::TagReading r;
  r.epc = util::Epc::from_serial(serial);
  r.timestamp = t;
  r.phase_rad = 1.0;
  r.rssi_dbm = -50.0;
  return r;
}

TEST(HistoryDatabase, RecordsAndCounts) {
  HistoryDatabase db;
  db.record(reading(1, util::msec(10)));
  db.record(reading(1, util::msec(20)));
  db.record(reading(2, util::msec(15)));
  EXPECT_EQ(db.tag_count(), 2u);
  EXPECT_EQ(db.total_readings(), 3u);
  const TagHistory* h = db.find(util::Epc::from_serial(1));
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_readings, 2u);
  EXPECT_EQ(h->first_seen, util::msec(10));
  EXPECT_EQ(h->last_seen, util::msec(20));
  EXPECT_EQ(db.find(util::Epc::from_serial(9)), nullptr);
}

TEST(HistoryDatabase, RetentionCapBoundsMemory) {
  HistoryDatabase db(4);
  for (int i = 0; i < 100; ++i) db.record(reading(1, util::msec(i)));
  const TagHistory* h = db.find(util::Epc::from_serial(1));
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->recent.size(), 4u);
  EXPECT_EQ(h->total_readings, 100u);  // total count survives the cap
  EXPECT_EQ(h->recent.front().timestamp, util::msec(96));
}

TEST(HistoryDatabase, SeenSinceSnapshotsScene) {
  HistoryDatabase db;
  db.record(reading(1, util::sec(1)));
  db.record(reading(2, util::sec(5)));
  db.record(reading(3, util::sec(9)));
  const auto scene = db.seen_since(util::sec(5));
  EXPECT_EQ(scene.size(), 2u);
}

TEST(HistoryDatabase, SeenSinceIgnoresInsertionOrderAndBucketCount) {
  // Same readings, two databases: `a` filled in one order; `b` filled in
  // the reverse order after 4,000 stale tags grew its bucket array.
  HistoryDatabase a;
  HistoryDatabase b;
  for (std::uint64_t s = 10000; s < 14000; ++s) {
    b.record(reading(s, util::sec(1)));
  }
  ASSERT_EQ(b.evict_older_than(util::sec(2)), 4000u);
  // Serial i * 7919 % 1000 is distinct for each i < 1000.
  const auto read = [](std::uint64_t i) {
    const auto t = util::sec(10 + static_cast<std::int64_t>(i % 3));
    return reading(i * 7919 % 1000, t);
  };
  for (std::uint64_t i = 0; i < 300; ++i) a.record(read(i));
  for (std::uint64_t i = 300; i-- > 0;) b.record(read(i));
  const auto scene = a.seen_since(util::sec(11));
  EXPECT_EQ(scene.size(), 200u);
  EXPECT_TRUE(std::is_sorted(scene.begin(), scene.end()));
  EXPECT_EQ(scene, b.seen_since(util::sec(11)));
}

TEST(HistoryDatabase, EvictionRemovesStaleTags) {
  HistoryDatabase db;
  db.record(reading(1, util::sec(1)));
  db.record(reading(2, util::sec(100)));
  EXPECT_EQ(db.evict_older_than(util::sec(50)), 1u);
  EXPECT_EQ(db.tag_count(), 1u);
  EXPECT_EQ(db.find(util::Epc::from_serial(1)), nullptr);
}

TEST(HistoryDatabase, ReadingsInWindow) {
  HistoryDatabase db;
  for (int i = 0; i < 10; ++i) db.record(reading(1, util::msec(i * 100)));
  const auto window =
      db.readings_in(util::Epc::from_serial(1), util::msec(250),
                     util::msec(650));
  ASSERT_EQ(window.size(), 4u);  // 300, 400, 500, 600 ms
  EXPECT_EQ(window.front().timestamp, util::msec(300));
  EXPECT_EQ(window.back().timestamp, util::msec(600));
  EXPECT_TRUE(db.readings_in(util::Epc::from_serial(7), util::msec(0),
                             util::sec(1))
                  .empty());
}

}  // namespace
}  // namespace tagwatch::core
