// core::ParallelAssessor differential suite: the engine's one promise is
// bit-identical output to the serial oracle::MotionAssessor for EVERY thread
// count, so every test here replays one reading stream through both and
// demands field-for-field equality — randomized scenes up to 4,096 tags,
// corrupt (fault-injected) readings, duplicate reads, out-of-window
// training traffic, and forget_after eviction included.
#include "core/parallel_assessor.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracle/motion_assessor.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::core {
namespace {

using oracle::MotionAssessor;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<util::Epc> make_epcs(std::size_t n) {
  std::vector<util::Epc> epcs;
  epcs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    epcs.push_back(util::Epc::from_serial(i + 1));
  }
  return epcs;
}

/// One synthetic reading.  `corrupt_rate` injects the kind of garbage a
/// faulty transport produces (wild phases, absurd RSSI) — the assessors
/// must agree on garbage exactly as they do on clean data.
rf::TagReading random_reading(util::Rng& rng, const util::Epc& epc,
                              util::SimTime t, double corrupt_rate) {
  rf::TagReading r;
  r.epc = epc;
  r.antenna = static_cast<rf::AntennaId>(rng.uniform_u64(1, 4));
  r.channel = static_cast<std::size_t>(rng.uniform_u64(0, 15));
  r.phase_rad = rng.uniform(0.0, 6.283185307179586);
  r.rssi_dbm = rng.uniform(-70.0, -40.0);
  r.timestamp = t;
  if (corrupt_rate > 0 && rng.chance(corrupt_rate)) {
    r.phase_rad = rng.chance(0.5) ? rng.uniform(-1e6, 1e6) : 0.0;
    r.rssi_dbm = rng.chance(0.5) ? -200.0 : 30.0;
  }
  return r;
}

/// A pre-generated stream: windows of in-window readings plus optional
/// between-window (training-only) traffic, identical for every assessor.
struct Stream {
  struct Window {
    std::vector<rf::TagReading> in_window;
    std::vector<rf::TagReading> after_assess;  ///< Train-only traffic.
    util::SimTime assess_at{0};
  };
  std::vector<Window> windows;
};

Stream make_stream(std::uint64_t seed, std::size_t n_tags,
                   std::size_t n_windows, std::size_t readings_per_window,
                   double corrupt_rate = 0.0, double tag_skip_rate = 0.0) {
  util::Rng rng(seed);
  const std::vector<util::Epc> epcs = make_epcs(n_tags);
  Stream stream;
  util::SimTime t = util::msec(1);
  for (std::size_t w = 0; w < n_windows; ++w) {
    Stream::Window window;
    for (std::size_t i = 0; i < readings_per_window; ++i) {
      const util::Epc& epc =
          epcs[static_cast<std::size_t>(rng.uniform_u64(0, n_tags - 1))];
      if (tag_skip_rate > 0 && rng.chance(tag_skip_rate)) continue;
      t += util::usec(static_cast<std::int64_t>(rng.uniform_u64(50, 500)));
      window.in_window.push_back(random_reading(rng, epc, t, corrupt_rate));
      if (rng.chance(0.05)) {  // Duplicate read, same slot time.
        window.in_window.push_back(window.in_window.back());
      }
    }
    t += util::msec(5);
    window.assess_at = t;
    // Phase-II-style traffic between windows: learns, never votes.
    const std::size_t extra = readings_per_window / 4;
    for (std::size_t i = 0; i < extra; ++i) {
      const util::Epc& epc =
          epcs[static_cast<std::size_t>(rng.uniform_u64(0, n_tags - 1))];
      t += util::usec(static_cast<std::int64_t>(rng.uniform_u64(50, 500)));
      window.after_assess.push_back(
          random_reading(rng, epc, t, corrupt_rate));
    }
    stream.windows.push_back(std::move(window));
  }
  return stream;
}

void expect_identical(const std::vector<TagAssessment>& serial,
                      const std::vector<TagAssessment>& parallel) {
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].epc, serial[i].epc) << "entry " << i;
    EXPECT_EQ(parallel[i].window_readings, serial[i].window_readings)
        << serial[i].epc.to_hex();
    EXPECT_EQ(parallel[i].moving_votes, serial[i].moving_votes)
        << serial[i].epc.to_hex();
    EXPECT_EQ(parallel[i].mobile, serial[i].mobile)
        << serial[i].epc.to_hex();
  }
}

/// Replays `stream` through the serial oracle and through the engine at
/// every thread count, asserting equality at every observable boundary.
void run_differential(const AssessorConfig& config, const Stream& stream) {
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MotionAssessor serial(config);
    ParallelAssessor engine(config, threads);
    EXPECT_EQ(engine.thread_count(), threads);
    for (const Stream::Window& w : stream.windows) {
      serial.begin_window();
      engine.begin_window();
      for (const rf::TagReading& r : w.in_window) {
        serial.ingest(r);
        engine.ingest(r);
      }
      expect_identical(serial.assess(w.assess_at),
                       engine.assess(w.assess_at));
      EXPECT_EQ(engine.tracked_count(), serial.tracked_count());
      // Repeat calls replay the cached window verbatim.
      expect_identical(serial.assess(w.assess_at + util::sec(999)),
                       engine.assess(w.assess_at + util::sec(999)));
      for (const rf::TagReading& r : w.after_assess) {
        serial.ingest(r);
        engine.ingest(r);
      }
      EXPECT_EQ(engine.mobile_tags(w.assess_at),
                serial.mobile_tags(w.assess_at));
    }
  }
}

TEST(ParallelAssessor, MatchesSerialOnSmallScene) {
  run_differential(AssessorConfig{},
                   make_stream(/*seed=*/11, /*n_tags=*/16, /*n_windows=*/6,
                               /*readings_per_window=*/160));
}

TEST(ParallelAssessor, MatchesSerialForEveryDetectorKind) {
  for (const DetectorKind kind :
       {DetectorKind::kPhaseMog, DetectorKind::kPhaseDiff,
        DetectorKind::kRssMog, DetectorKind::kRssDiff,
        DetectorKind::kHybridAnd, DetectorKind::kHybridOr}) {
    SCOPED_TRACE(static_cast<int>(kind));
    AssessorConfig config;
    config.detector_kind = kind;
    run_differential(config,
                     make_stream(/*seed=*/23, /*n_tags=*/32, /*n_windows=*/4,
                                 /*readings_per_window=*/200));
  }
}

TEST(ParallelAssessor, MatchesSerialWithCorruptReadings) {
  run_differential(AssessorConfig{},
                   make_stream(/*seed=*/37, /*n_tags=*/64, /*n_windows=*/5,
                               /*readings_per_window=*/400,
                               /*corrupt_rate=*/0.15));
}

TEST(ParallelAssessor, MatchesSerialOnLargeRandomizedScene) {
  // The acceptance-scale scene: 4,096 tags, two windows, corrupt readings
  // mixed in.  Every thread count must reproduce the serial output.
  run_differential(AssessorConfig{},
                   make_stream(/*seed=*/41, /*n_tags=*/4096, /*n_windows=*/2,
                               /*readings_per_window=*/12000,
                               /*corrupt_rate=*/0.05,
                               /*tag_skip_rate=*/0.10));
}

TEST(ParallelAssessor, MatchesSerialThroughForgetAfterEviction) {
  AssessorConfig config;
  config.forget_after = util::sec(2);
  const std::vector<util::Epc> epcs = make_epcs(40);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MotionAssessor serial(config);
    ParallelAssessor engine(config, threads);
    util::Rng rng(7);

    // Window 1: every tag read.
    serial.begin_window();
    engine.begin_window();
    for (std::size_t i = 0; i < epcs.size(); ++i) {
      const auto r = random_reading(rng, epcs[i],
                                    util::msec(10 + static_cast<int>(i)), 0);
      serial.ingest(r);
      engine.ingest(r);
    }
    expect_identical(serial.assess(util::msec(100)),
                     engine.assess(util::msec(100)));
    EXPECT_EQ(engine.tracked_count(), 40u);

    // Window 2, three seconds later: only the first half is read, so the
    // other half ages past forget_after and must be evicted identically.
    serial.begin_window();
    engine.begin_window();
    for (std::size_t i = 0; i < epcs.size() / 2; ++i) {
      const auto r = random_reading(rng, epcs[i], util::sec(3), 0);
      serial.ingest(r);
      engine.ingest(r);
    }
    expect_identical(serial.assess(util::sec(4)), engine.assess(util::sec(4)));
    EXPECT_EQ(serial.tracked_count(), 20u);
    EXPECT_EQ(engine.tracked_count(), 20u);

    // Window 3: an evicted tag returns — treated as brand new (and mobile
    // on its first reading) by both.
    serial.begin_window();
    engine.begin_window();
    const auto back = random_reading(rng, epcs[30], util::sec(5), 0);
    serial.ingest(back);
    engine.ingest(back);
    const auto& s = serial.assess(util::sec(5));
    expect_identical(s, engine.assess(util::sec(5)));
    ASSERT_EQ(s.size(), 1u);
    EXPECT_TRUE(s[0].mobile);
  }
}

TEST(ParallelAssessor, BuffersTrainingTrafficUntilNextBoundary) {
  // Readings ingested with no window open may be buffered by the engine;
  // they must still be applied before the next window's verdicts.
  AssessorConfig config;
  ParallelAssessor engine(config, 4);
  MotionAssessor serial(config);
  const Stream stream = make_stream(/*seed=*/53, /*n_tags=*/8,
                                    /*n_windows=*/3,
                                    /*readings_per_window=*/120);
  // Feed window 0's readings entirely OUTSIDE any window.
  for (const rf::TagReading& r : stream.windows[0].in_window) {
    serial.ingest(r);
    engine.ingest(r);
  }
  EXPECT_EQ(engine.tracked_count(), serial.tracked_count());
  serial.begin_window();
  engine.begin_window();
  for (const rf::TagReading& r : stream.windows[1].in_window) {
    serial.ingest(r);
    engine.ingest(r);
  }
  const util::SimTime t = stream.windows[1].assess_at;
  expect_identical(serial.assess(t), engine.assess(t));
}

TEST(ParallelAssessor, AssessBeforeAnyWindowIsEmpty) {
  ParallelAssessor engine(AssessorConfig{}, 4);
  EXPECT_TRUE(engine.assess(util::sec(1)).empty());
  EXPECT_TRUE(engine.mobile_tags(util::sec(1)).empty());
  EXPECT_EQ(engine.tracked_count(), 0u);
}

TEST(ParallelAssessor, InvalidDetectorConfigThrowsEagerly) {
  // The serial oracle validates lazily at first detector construction;
  // the engine fails fast in the constructor instead.
  AssessorConfig config;
  config.detector.phase_mog.learning_rate = 1.5;
  EXPECT_THROW(ParallelAssessor(config, 2), std::invalid_argument);
}

}  // namespace
}  // namespace tagwatch::core
