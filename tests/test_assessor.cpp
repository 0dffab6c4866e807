// Behaviour tests for the Phase-I motion assessor.  Every test runs on
// the production engine (core::ParallelAssessor at 1 and 4 threads) and on
// the serial oracle (tests/oracle) it is differentially tested against.
// The sweep is a generic lambda rather than TYPED_TEST so the ctest names
// stay "MotionAssessor.<Behaviour>" (gtest_discover_tests appends the
// type parameter to typed test names).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <type_traits>

#include "core/parallel_assessor.hpp"
#include "oracle/motion_assessor.hpp"
#include "util/circular.hpp"
#include "util/rng.hpp"

namespace tagwatch::core {
namespace {

/// Runs `body(assessor)` on a fresh serial oracle, then on fresh engines
/// at 1 and 4 threads, all built from `config`.
template <typename Body>
void for_each_assessor(const AssessorConfig& config, Body body) {
  {
    SCOPED_TRACE("oracle");
    oracle::MotionAssessor a(config);
    body(a);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("ParallelAssessor threads=" + std::to_string(threads));
    ParallelAssessor a(config, threads);
    body(a);
  }
}

AssessorConfig fast_config() {
  AssessorConfig c;
  c.immobility.trust_count = 5;
  return c;
}

rf::TagReading reading(std::uint64_t serial, double phase, util::SimTime t,
                       rf::AntennaId antenna = 1) {
  rf::TagReading r;
  r.epc = util::Epc::from_serial(serial);
  r.antenna = antenna;
  r.channel = 0;
  r.phase_rad = util::wrap_to_2pi(phase);
  r.rssi_dbm = -55.0;
  r.timestamp = t;
  return r;
}

TEST(MotionAssessor, NewTagsArePresumedMobile) {
  for_each_assessor(fast_config(), [](auto& a) {
    a.begin_window();
    a.ingest(reading(1, 1.0, util::msec(10)));
    const auto mobile = a.mobile_tags(util::msec(20));
    ASSERT_EQ(mobile.size(), 1u);
    EXPECT_EQ(mobile[0], util::Epc::from_serial(1));
  });
}

TEST(MotionAssessor, StationaryTagConvergesToNotMobile) {
  for_each_assessor(fast_config(), [](auto& a) {
    util::Rng rng(81);
    util::SimTime t{0};
    // Train across several windows with stable phase.
    for (int w = 0; w < 10; ++w) {
      a.begin_window();
      for (int i = 0; i < 10; ++i) {
        t += util::msec(20);
        a.ingest(reading(1, rng.normal(2.0, 0.05), t));
      }
      a.assess(t);
    }
    a.begin_window();
    t += util::msec(20);
    a.ingest(reading(1, rng.normal(2.0, 0.05), t));
    EXPECT_TRUE(a.mobile_tags(t).empty());
  });
}

TEST(MotionAssessor, MovedTagFlagsMobileAgain) {
  for_each_assessor(fast_config(), [](auto& a) {
    util::Rng rng(82);
    util::SimTime t{0};
    for (int w = 0; w < 10; ++w) {
      a.begin_window();
      for (int i = 0; i < 10; ++i) {
        t += util::msec(20);
        a.ingest(reading(1, rng.normal(2.0, 0.05), t));
      }
      a.assess(t);
    }
    // Tag displaced: phase jumps ~1 rad.
    a.begin_window();
    t += util::msec(20);
    a.ingest(reading(1, rng.normal(3.0, 0.05), t));
    const auto mobile = a.mobile_tags(t);
    ASSERT_EQ(mobile.size(), 1u);
  });
}

TEST(MotionAssessor, OnlyWindowReadingsVote) {
  for_each_assessor(fast_config(), [](auto& a) {
    util::SimTime t{0};
    // Reading outside any window trains but does not vote.
    a.ingest(reading(1, 1.0, t));
    a.begin_window();
    const auto assessments = a.assess(t);
    EXPECT_TRUE(assessments.empty());  // tag had no window readings
    EXPECT_EQ(a.tracked_count(), 1u);  // but it is tracked
  });
}

TEST(MotionAssessor, AssessmentCountsVotes) {
  for_each_assessor(fast_config(), [](auto& a) {
    util::Rng rng(83);
    util::SimTime t{0};
    for (int w = 0; w < 10; ++w) {
      a.begin_window();
      for (int i = 0; i < 10; ++i) {
        t += util::msec(20);
        a.ingest(reading(1, rng.normal(2.0, 0.05), t));
      }
      a.assess(t);
    }
    a.begin_window();
    t += util::msec(20);
    a.ingest(reading(1, rng.normal(2.0, 0.05), t));  // stationary vote
    t += util::msec(20);
    a.ingest(reading(1, 4.0, t));  // moving vote
    const auto assessments = a.assess(t);
    ASSERT_EQ(assessments.size(), 1u);
    EXPECT_EQ(assessments[0].window_readings, 2u);
    EXPECT_EQ(assessments[0].moving_votes, 1u);
    EXPECT_TRUE(assessments[0].mobile);  // threshold = 1 vote
  });
}

TEST(MotionAssessor, ForgetsLongGoneTags) {
  AssessorConfig cfg = fast_config();
  cfg.forget_after = util::sec(5);
  for_each_assessor(cfg, [](auto& a) {
    a.begin_window();
    a.ingest(reading(1, 1.0, util::msec(100)));
    a.ingest(reading(2, 1.0, util::msec(100)));
    a.assess(util::msec(200));
    EXPECT_EQ(a.tracked_count(), 2u);
    // Tag 2 keeps reporting; tag 1 disappears for > forget_after.
    a.begin_window();
    a.ingest(reading(2, 1.0, util::sec(8)));
    a.assess(util::sec(8));
    EXPECT_EQ(a.tracked_count(), 1u);
    if constexpr (std::is_same_v<std::decay_t<decltype(a)>,
                                 oracle::MotionAssessor>) {
      EXPECT_EQ(a.detector_for(util::Epc::from_serial(1)), nullptr);
      EXPECT_NE(a.detector_for(util::Epc::from_serial(2)), nullptr);
    }
  });
}

TEST(MotionAssessor, MultipleTagsIndependent) {
  for_each_assessor(fast_config(), [](auto& a) {
    util::Rng rng(84);
    util::SimTime t{0};
    for (int w = 0; w < 10; ++w) {
      a.begin_window();
      for (int i = 0; i < 10; ++i) {
        t += util::msec(20);
        a.ingest(reading(1, rng.normal(2.0, 0.05), t));   // static tag
        a.ingest(reading(2, rng.uniform(0.0, 6.28), t));  // mover
      }
      a.assess(t);
    }
    a.begin_window();
    t += util::msec(20);
    a.ingest(reading(1, rng.normal(2.0, 0.05), t));
    a.ingest(reading(2, rng.uniform(0.0, 6.28), t));
    const auto mobile = a.mobile_tags(t);
    ASSERT_EQ(mobile.size(), 1u);
    EXPECT_EQ(mobile[0], util::Epc::from_serial(2));
  });
}

TEST(MotionAssessor, AssessIsCachedAndIdempotentPerWindow) {
  // Regression: a second assess() (e.g. via mobile_tags()) after the
  // window closed used to re-apply forget_after eviction at the later
  // clock, dropping tags the window did assess and returning a different
  // (eventually empty) result.  The window result must be cached.
  AssessorConfig cfg = fast_config();
  cfg.forget_after = util::sec(5);
  for_each_assessor(cfg, [](auto& a) {
    a.begin_window();
    a.ingest(reading(1, 1.0, util::msec(100)));
    const auto first = a.assess(util::msec(200));
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(first[0].mobile);  // new tag: presumed mobile

    // Re-query long past forget_after: same cached result, no re-eviction.
    const auto second = a.assess(util::sec(60));
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].epc, first[0].epc);
    EXPECT_EQ(second[0].window_readings, first[0].window_readings);
    EXPECT_EQ(second[0].moving_votes, first[0].moving_votes);
    EXPECT_EQ(second[0].mobile, first[0].mobile);
    EXPECT_EQ(a.mobile_tags(util::sec(60)).size(), 1u);
    EXPECT_EQ(a.tracked_count(), 1u);

    // The next window starts fresh: the cache is invalidated.
    a.begin_window();
    EXPECT_TRUE(a.assess(util::sec(60)).empty());
  });
}

TEST(MotionAssessor, MobileTagsAfterAssessSeesTheSameWindow) {
  // assess() followed by mobile_tags() in the same window must agree.
  for_each_assessor(fast_config(), [](auto& a) {
    a.begin_window();
    a.ingest(reading(7, 1.0, util::msec(10)));
    const auto assessments = a.assess(util::msec(20));
    ASSERT_EQ(assessments.size(), 1u);
    const auto mobile = a.mobile_tags(util::msec(20));
    ASSERT_EQ(mobile.size(), 1u);
    EXPECT_EQ(mobile[0], util::Epc::from_serial(7));
  });
}

TEST(MotionAssessor, VoteThresholdConfigurable) {
  AssessorConfig cfg = fast_config();
  cfg.mobile_vote_threshold = 3;
  for_each_assessor(cfg, [](auto& a) {
    a.begin_window();
    util::SimTime t{0};
    // Two unexplained readings: below the 3-vote threshold.
    a.ingest(reading(1, 1.0, t));
    a.ingest(reading(1, 3.0, t + util::msec(1)));
    const auto assessments = a.assess(t + util::msec(2));
    ASSERT_EQ(assessments.size(), 1u);
    EXPECT_EQ(assessments[0].moving_votes, 2u);
    EXPECT_FALSE(assessments[0].mobile);
  });
}

}  // namespace
}  // namespace tagwatch::core
