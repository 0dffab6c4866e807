// Tests for the tracker's motion-augmentation machinery: velocity
// compensation, continuity priors, and configuration knobs.
#include <gtest/gtest.h>

#include "track/hologram.hpp"
#include "util/circular.hpp"
#include "util/rng.hpp"

namespace tagwatch::track {
namespace {

std::vector<rf::Antenna> four_antennas() {
  return {{1, {-5, -5, 0}, 8.0},
          {2, {5, -5, 0}, 8.0},
          {3, {-5, 5, 0}, 8.0},
          {4, {5, 5, 0}, 8.0}};
}

/// Readings of a tag moving at constant velocity, one antenna per step
/// (noise_sd = 0 draws no noise: std::normal_distribution requires sigma > 0).
std::vector<rf::TagReading> moving_readings(
    util::Vec3 start, util::Vec3 vel, const std::vector<rf::Antenna>& ants,
    const rf::ChannelPlan& plan, int count, int step_ms, double noise_sd,
    util::Rng& rng) {
  std::vector<rf::TagReading> out;
  for (int i = 0; i < count; ++i) {
    const util::SimTime t = util::msec(i * step_ms);
    const util::Vec3 pos = start + vel * util::to_seconds(t);
    const auto& a = ants[static_cast<std::size_t>(i) % ants.size()];
    rf::TagReading r;
    r.epc = util::Epc::from_serial(1);
    r.antenna = a.id;
    r.channel = 0;
    r.timestamp = t;
    r.phase_rad = util::wrap_to_2pi(
        -4.0 * std::numbers::pi * util::distance(a.position, pos) /
            plan.wavelength_m(0) +
        0.8 + (noise_sd > 0.0 ? rng.normal(0.0, noise_sd) : 0.0));
    out.push_back(r);
  }
  return out;
}

TEST(HologramVelocity, TrueVelocityHypothesisFitsCleanly) {
  const auto ants = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;
  cfg.search_velocity = false;  // isolate the caller-supplied hypothesis
  HologramTracker tracker(cfg, ants, plan);
  util::Rng rng(301);

  const util::Vec3 start{0.1, -0.05, 0};
  const util::Vec3 vel{0.6, 0.3, 0};
  const auto readings =
      moving_readings(start, vel, ants, plan, 4, 25, 0.0, rng);
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);

  // Window reference time is its center (t = 37.5 ms): truth there.
  const util::Vec3 mid = start + vel * 0.0375;
  const auto with_vel = tracker.locate(window, mid, 0.1, vel);
  const auto without_vel = tracker.locate(window, mid, 0.1, util::Vec3{});
  ASSERT_TRUE(with_vel.has_value());
  ASSERT_TRUE(without_vel.has_value());
  // The correct velocity hypothesis explains the data to numerical noise;
  // the zero hypothesis is stuck with motion-induced residual.
  EXPECT_LT(with_vel->residual_rad, 0.1);
  EXPECT_GT(without_vel->residual_rad, with_vel->residual_rad + 0.1);
  EXPECT_LT(util::distance(with_vel->position, mid), 0.03);
}

TEST(HologramVelocity, HypothesisSweepRecoversUnknownMotion) {
  const auto ants = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;  // search_velocity = true by default
  HologramTracker tracker(cfg, ants, plan);
  util::Rng rng(302);

  const util::Vec3 start{-0.1, 0.1, 0};
  const util::Vec3 vel{0.0, 0.7, 0};
  const auto readings =
      moving_readings(start, vel, ants, plan, 4, 25, 0.02, rng);
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);
  const util::Vec3 mid = start + vel * 0.0375;
  // No velocity supplied: the sweep must still find a low-residual fit
  // near the true mid-window position.
  const auto est = tracker.locate(window, mid, 0.12, util::Vec3{});
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->residual_rad, 0.25);
  EXPECT_LT(util::distance(est->position, mid), 0.06);
}

TEST(HologramConfig, MinPairsGatesEstimates) {
  const auto ants = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig strict;
  strict.min_pairs = 6;
  HologramTracker tracker(strict, ants, plan);
  util::Rng rng(303);
  // 3 readings → at most 3 pairs < 6.
  const auto readings = moving_readings({0, 0, 0}, {0, 0, 0}, ants, plan, 3,
                                        25, 0.0, rng);
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);
  EXPECT_FALSE(tracker.locate(window).has_value());
}

TEST(HologramConfig, PairMaxDtFiltersStalePairs) {
  const auto ants = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  TrackerConfig cfg;
  cfg.pair_max_dt = util::msec(10);  // tighter than the 25 ms spacing
  cfg.min_pairs = 1;
  HologramTracker tracker(cfg, ants, plan);
  util::Rng rng(304);
  const auto readings = moving_readings({0, 0, 0}, {0, 0, 0}, ants, plan, 4,
                                        25, 0.0, rng);
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);
  // All cross-antenna pairs are ≥25 ms apart → no pairs → no estimate.
  EXPECT_FALSE(tracker.locate(window).has_value());
}

TEST(HologramConfig, RejectsBadGridStep) {
  TrackerConfig bad;
  bad.coarse_step_m = 0.0;
  EXPECT_THROW(HologramTracker(bad, four_antennas(),
                               rf::ChannelPlan::single(920e6)),
               std::invalid_argument);
}

TEST(HologramPrior, AnchoredSearchStaysInBox) {
  const auto ants = four_antennas();
  const rf::ChannelPlan plan = rf::ChannelPlan::single(920.625e6);
  HologramTracker tracker({}, ants, plan);
  util::Rng rng(305);
  const auto readings = moving_readings({0.3, 0.3, 0}, {0, 0, 0}, ants, plan,
                                        4, 25, 0.0, rng);
  std::vector<const rf::TagReading*> window;
  for (const auto& r : readings) window.push_back(&r);
  // Anchor far from the truth with a tiny radius: the estimate must stay
  // inside the requested box even though the truth is outside it.
  const util::Vec3 anchor{-0.3, -0.3, 0};
  const auto est = tracker.locate(window, anchor, 0.05);
  ASSERT_TRUE(est.has_value());
  EXPECT_LE(std::abs(est->position.x - anchor.x), 0.06);
  EXPECT_LE(std::abs(est->position.y - anchor.y), 0.06);
}

}  // namespace
}  // namespace tagwatch::track
