// Tests for the differential-hologram tracking substrate.
#include <gtest/gtest.h>

#include "rf/channel.hpp"
#include "track/hologram.hpp"
#include "util/circular.hpp"
#include "util/rng.hpp"

namespace tagwatch::track {
namespace {

std::vector<rf::Antenna> four_antennas() {
  // §7.3 deployment: four antennas at (±5 m, ±5 m).
  return {{1, {-5, -5, 0}, 8.0},
          {2, {5, -5, 0}, 8.0},
          {3, {-5, 5, 0}, 8.0},
          {4, {5, 5, 0}, 8.0}};
}

/// Generates readings of a tag at `pos` from every antenna, with
/// N(0, noise_sd) phase noise (none at noise_sd = 0: std::normal_distribution
/// requires sigma > 0).
std::vector<rf::TagReading> synthetic_readings(
    util::Vec3 pos, const std::vector<rf::Antenna>& antennas,
    const rf::ChannelPlan& plan, std::size_t channel, double tag_phase,
    util::SimTime t, double noise_sd, util::Rng& rng) {
  std::vector<rf::TagReading> out;
  for (const auto& a : antennas) {
    const double d = util::distance(a.position, pos);
    rf::TagReading r;
    r.epc = util::Epc::from_serial(1);
    r.antenna = a.id;
    r.channel = channel;
    r.phase_rad = util::wrap_to_2pi(
        -4.0 * std::numbers::pi * d / plan.wavelength_m(channel) + tag_phase +
        (noise_sd > 0.0 ? rng.normal(0.0, noise_sd) : 0.0));
    r.timestamp = t;
    out.push_back(r);
  }
  return out;
}

TEST(HologramTracker, RequiresTwoAntennas) {
  EXPECT_THROW(HologramTracker({}, {{1, {0, 0, 0}, 8.0}},
                               rf::ChannelPlan::single(920e6)),
               std::invalid_argument);
}

TEST(HologramTracker, LocatesStaticTagFromCleanPhases) {
  const auto antennas = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;
  cfg.coarse_step_m = 0.04;
  HologramTracker tracker(cfg, antennas, plan);
  util::Rng rng(121);

  const util::Vec3 truth{0.21, -0.13, 0.0};
  const auto readings = synthetic_readings(truth, antennas, plan, 0, 0.8,
                                           util::msec(100), 0.0, rng);
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);
  // Narrowband grating lobes make the unanchored solution ambiguous; anchor
  // near (not at) the truth, as the paper anchors its initial position.
  const auto est = tracker.locate(window, util::Vec3{0.18, -0.11, 0.0});
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pair_count, 6u);  // C(4,2) antenna pairs
  EXPECT_LT(util::distance(est->position, truth), 0.03);
  EXPECT_LT(est->residual_rad, 0.2);
}

TEST(HologramTracker, NoisyPhasesStillLocalizeCoarsely) {
  const auto antennas = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;
  cfg.coarse_step_m = 0.04;
  HologramTracker tracker(cfg, antennas, plan);
  util::Rng rng(122);
  const util::Vec3 truth{-0.3, 0.25, 0.0};
  // Several inventory rounds' worth of readings: noise averages out across
  // pairs (a single 4-reading window at 0.1 rad noise is ambiguous).
  std::vector<rf::TagReading> readings;
  for (int round = 0; round < 3; ++round) {
    const auto batch = synthetic_readings(truth, antennas, plan, 0, 0.8,
                                          util::msec(100), 0.1, rng);
    readings.insert(readings.end(), batch.begin(), batch.end());
  }
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);
  const auto est = tracker.locate(window, util::Vec3{-0.25, 0.2, 0.0});
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(util::distance(est->position, truth), 0.12);
}

TEST(HologramTracker, RefusesUnderdeterminedWindow) {
  const auto antennas = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  HologramTracker tracker({}, antennas, plan);
  util::Rng rng(123);
  // One reading: zero pairs.
  auto readings = synthetic_readings({0, 0, 0}, antennas, plan, 0, 0.0,
                                     util::msec(0), 0.0, rng);
  std::vector<const rf::TagReading*> window{&readings[0]};
  EXPECT_FALSE(tracker.locate(window).has_value());
}

TEST(HologramTracker, CrossChannelReadingsAreNotPaired) {
  const auto antennas = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::china_920_926();
  HologramTracker tracker({}, antennas, plan);
  util::Rng rng(124);
  auto a = synthetic_readings({0, 0, 0}, antennas, plan, 0, 0.0, util::msec(0),
                              0.0, rng);
  // Mix channels so that no same-channel cross-antenna pair exists.
  a[1].channel = 1;
  a[2].channel = 2;
  a[3].channel = 3;
  std::vector<const rf::TagReading*> window;
  for (const auto& r : a) window.push_back(&r);
  EXPECT_FALSE(tracker.locate(window).has_value());
}

TEST(HologramTracker, TracksCircularTrajectory) {
  const auto antennas = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;
  sim::CircularTrack train({0, 0, 0}, 0.2, 0.7);
  cfg.initial_hint = train.position(util::SimTime{0});  // §7.3: known start
  HologramTracker tracker(cfg, antennas, plan);
  util::Rng rng(125);
  std::vector<rf::TagReading> readings;
  // 40 Hz sampling for 3 seconds, antennas round-robin.
  for (int i = 0; i < 120; ++i) {
    const util::SimTime t = util::msec(i * 25);
    const util::Vec3 pos = train.position(t);
    const auto& antenna = antennas[static_cast<std::size_t>(i) % 4];
    rf::TagReading r;
    r.epc = util::Epc::from_serial(1);
    r.antenna = antenna.id;
    r.channel = 0;
    r.timestamp = t;
    r.phase_rad = util::wrap_to_2pi(
        -4.0 * std::numbers::pi * util::distance(antenna.position, pos) /
            plan.wavelength_m(0) +
        0.8 + rng.normal(0.0, 0.05));
    readings.push_back(r);
  }
  const auto estimates = tracker.track(readings);
  EXPECT_GT(estimates.size(), 10u);
  const TrackingAccuracy acc = tracking_accuracy(estimates, train);
  // High-rate tracking is accurate to a few cm (Fig. 1's no-competitor case).
  EXPECT_LT(acc.mean_error_m, 0.06);
}

TEST(HologramTracker, LowerRateDegradesAccuracy) {
  // The core Fig. 1 phenomenon, isolated from the protocol: fewer readings
  // per window → worse trajectory recovery.
  const auto antennas = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;
  cfg.coarse_step_m = 0.04;
  sim::CircularTrack train({0, 0, 0}, 0.2, 0.7);
  cfg.initial_hint = train.position(util::SimTime{0});
  HologramTracker tracker(cfg, antennas, plan);
  util::Rng rng(126);

  auto run_at_rate = [&](int period_ms) {
    std::vector<rf::TagReading> readings;
    for (int t_ms = 0; t_ms < 4000; t_ms += period_ms) {
      const util::SimTime t = util::msec(t_ms);
      const util::Vec3 pos = train.position(t);
      const auto& antenna =
          antennas[static_cast<std::size_t>(t_ms / period_ms) % 4];
      rf::TagReading r;
      r.epc = util::Epc::from_serial(1);
      r.antenna = antenna.id;
      r.channel = 0;
      r.timestamp = t;
      r.phase_rad = util::wrap_to_2pi(
          -4.0 * std::numbers::pi * util::distance(antenna.position, pos) /
              plan.wavelength_m(0) +
          0.8 + rng.normal(0.0, 0.05));
      readings.push_back(r);
    }
    const auto estimates = tracker.track(readings);
    if (estimates.empty()) return 1.0;  // failed to track at all
    return tracking_accuracy(estimates, train).mean_error_m;
  };

  const double fast = run_at_rate(15);   // ~67 Hz
  const double slow = run_at_rate(120);  // ~8 Hz
  EXPECT_LT(fast, slow);
}

}  // namespace
}  // namespace tagwatch::track
