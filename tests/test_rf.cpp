// Tests for the RF substrate: channel plan, propagation, Fresnel zones,
// and the end-to-end observation model.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "rf/channel.hpp"
#include "rf/channel_plan.hpp"
#include "rf/propagation.hpp"
#include "util/circular.hpp"
#include "util/stats.hpp"

namespace tagwatch::rf {
namespace {

TEST(ChannelPlan, China16Channels) {
  const ChannelPlan plan = ChannelPlan::china_920_926();
  ASSERT_EQ(plan.channel_count(), 16u);
  EXPECT_NEAR(plan.frequency_hz(0), 920.25e6, 1.0);
  EXPECT_NEAR(plan.frequency_hz(15), 925.875e6, 1.0);
  // Wavelengths near 32.5 cm at 920 MHz.
  EXPECT_NEAR(plan.wavelength_m(0), 0.3258, 1e-3);
  EXPECT_GT(plan.wavelength_m(0), plan.wavelength_m(15));
}

TEST(ChannelPlan, HopVisitsEveryChannel) {
  const ChannelPlan plan = ChannelPlan::china_920_926();
  std::set<std::size_t> visited;
  for (std::size_t i = 0; i < plan.channel_count(); ++i) {
    const std::size_t c = plan.hop_channel(i);
    EXPECT_LT(c, plan.channel_count());
    visited.insert(c);
  }
  EXPECT_EQ(visited.size(), plan.channel_count());
}

TEST(ChannelPlan, SinglePlanNeverHops) {
  const ChannelPlan plan = ChannelPlan::single(920e6);
  EXPECT_EQ(plan.channel_count(), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(plan.hop_channel(i), 0u);
}

TEST(ChannelPlan, RejectsBadFrequencies) {
  EXPECT_THROW(ChannelPlan({}), std::invalid_argument);
  EXPECT_THROW(ChannelPlan({-1.0}), std::invalid_argument);
}

TEST(Propagation, PhaseFollows4PiDOverLambda) {
  // θ = 4πd/λ (mod 2π): moving the tag by λ/4 flips the phase by π.
  const double lambda = 0.3258;
  const util::Vec3 reader{0, 0, 0};
  const PathSet near = compute_paths(reader, {1.0, 0, 0}, {});
  const PathSet far = compute_paths(reader, {1.0 + lambda / 4.0, 0, 0}, {});
  const double phase_near = util::wrap_to_2pi(std::arg(
      backscatter_channel(near, lambda, 0.0)));
  const double phase_far = util::wrap_to_2pi(std::arg(
      backscatter_channel(far, lambda, 0.0)));
  EXPECT_NEAR(util::circular_distance(phase_near, phase_far),
              std::numbers::pi, 1e-6);
}

TEST(Propagation, FullWavelengthRoundTripIsInvariant) {
  const double lambda = 0.3258;
  const PathSet a = compute_paths({0, 0, 0}, {1.0, 0, 0}, {});
  const PathSet b = compute_paths({0, 0, 0}, {1.0 + lambda / 2.0, 0, 0}, {});
  // Half a wavelength of one-way distance = full wavelength round trip.
  const double pa = std::arg(backscatter_channel(a, lambda, 0.0));
  const double pb = std::arg(backscatter_channel(b, lambda, 0.0));
  EXPECT_NEAR(util::circular_distance(pa, pb), 0.0, 1e-6);
}

TEST(Propagation, TagPhaseOffsetAdds) {
  const PathSet p = compute_paths({0, 0, 0}, {1.3, 0.4, 0}, {});
  const double base = std::arg(backscatter_channel(p, 0.3258, 0.0));
  const double shifted = std::arg(backscatter_channel(p, 0.3258, 1.0));
  EXPECT_NEAR(util::circular_distance(util::wrap_to_2pi(shifted),
                                      util::wrap_to_2pi(base + 1.0)),
              0.0, 1e-9);
}

TEST(Propagation, ReflectorAddsPath) {
  const std::vector<Reflector> people{{{0.5, 1.0, 0}, 0.3}};
  const PathSet p = compute_paths({0, 0, 0}, {1.0, 0, 0}, people);
  ASSERT_EQ(p.reflected_m.size(), 1u);
  EXPECT_GT(p.reflected_m[0], p.los_m);  // detour is strictly longer
  EXPECT_DOUBLE_EQ(p.coefficients[0], 0.3);
}

TEST(Propagation, ReflectorShiftsObservedPhase) {
  const double lambda = 0.3258;
  const PathSet clear = compute_paths({0, 0, 0}, {2.0, 0, 0}, {});
  const PathSet busy = compute_paths({0, 0, 0}, {2.0, 0, 0},
                                     {{{1.0, 0.35, 0}, 0.4}});
  const double p_clear = std::arg(backscatter_channel(clear, lambda, 0.0));
  const double p_busy = std::arg(backscatter_channel(busy, lambda, 0.0));
  // A strong nearby reflector must perturb the superposed phase.
  EXPECT_GT(util::circular_distance(p_clear, p_busy), 0.01);
}

TEST(Propagation, FresnelZoneIndexing) {
  const double lambda = 0.3258;
  const util::Vec3 reader{0, 0, 0};
  const util::Vec3 tag{2.0, 0, 0};
  // A point on the LOS segment has zero detour → zone 1.
  EXPECT_EQ(fresnel_zone(reader, tag, {1.0, 0.0, 0}, lambda), 1);
  // Larger lateral offsets land in higher zones, monotonically.
  int prev = 0;
  for (const double y : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const int zone = fresnel_zone(reader, tag, {1.0, y, 0}, lambda);
    EXPECT_GE(zone, prev);
    prev = zone;
  }
  EXPECT_GT(prev, 3);
}

TEST(Propagation, RssiDecreasesWithDistance) {
  const double lambda = 0.3258;
  double prev = backscatter_rssi_dbm(0.5, lambda);
  for (const double d : {1.0, 2.0, 4.0, 8.0}) {
    const double rssi = backscatter_rssi_dbm(d, lambda);
    EXPECT_LT(rssi, prev);
    prev = rssi;
  }
  // Two-way free space: doubling distance costs ~12 dB.
  EXPECT_NEAR(backscatter_rssi_dbm(1.0, lambda) -
                  backscatter_rssi_dbm(2.0, lambda),
              12.04, 0.1);
}

class RfChannelTest : public ::testing::Test {
 protected:
  ChannelPlan plan_ = ChannelPlan::china_920_926();
  RfChannel channel_{plan_};
  Antenna antenna_{1, {0, 0, 0}, 8.0};
  util::Rng rng_{17};
};

TEST_F(RfChannelTest, StationaryTagPhaseIsTightlyClustered) {
  util::CircularStats stats;
  for (int i = 0; i < 500; ++i) {
    const RfObservation obs =
        channel_.observe(antenna_, {1.5, 0.5, 0}, 0.7, {}, 3, rng_);
    stats.add(obs.phase_rad);
  }
  // Spread should be on the order of the configured phase noise (0.1 rad).
  EXPECT_LT(stats.stddev(), 0.15);
  EXPECT_GT(stats.stddev(), 0.03);
}

TEST_F(RfChannelTest, PhaseDiffersAcrossChannels) {
  const RfObservation a =
      channel_.observe(antenna_, {1.5, 0.5, 0}, 0.0, {}, 0, rng_);
  const RfObservation b =
      channel_.observe(antenna_, {1.5, 0.5, 0}, 0.0, {}, 15, rng_);
  // ~5.6 MHz apart over a 2×1.58 m round trip ⇒ phase separation well above
  // the noise floor.
  EXPECT_GT(util::circular_distance(a.phase_rad, b.phase_rad), 0.2);
}

TEST_F(RfChannelTest, RssiQuantizedToHalfDb) {
  for (int i = 0; i < 50; ++i) {
    const RfObservation obs =
        channel_.observe(antenna_, {2.0, 0.0, 0}, 0.0, {}, 3, rng_);
    const double steps = obs.rssi_dbm / 0.5;
    EXPECT_NEAR(steps, std::round(steps), 1e-9);
  }
}

TEST_F(RfChannelTest, PhaseInValidRange) {
  for (int i = 0; i < 200; ++i) {
    const RfObservation obs = channel_.observe(
        antenna_, {rng_.uniform(0.5, 5.0), rng_.uniform(-3.0, 3.0), 0}, 0.0,
        {}, static_cast<std::size_t>(rng_.below(16)), rng_);
    EXPECT_GE(obs.phase_rad, 0.0);
    EXPECT_LT(obs.phase_rad, util::kTwoPi);
  }
}

TEST_F(RfChannelTest, MovingReflectorCausesPhaseJumps) {
  // Fig. 7: a person walking near the link shifts the superposed phase even
  // though the tag is static — the multipath effect the GMM must absorb.
  util::CircularStats clear_stats, busy_stats;
  for (int i = 0; i < 300; ++i) {
    clear_stats.add(
        channel_.observe(antenna_, {2.0, 0, 0}, 0.0, {}, 5, rng_).phase_rad);
    // The person alternates between two spots with clearly different
    // reader→person→tag detours (different Fresnel zones → distinct
    // superposition states).
    const util::Vec3 person =
        (i < 150) ? util::Vec3{0.9, 0.15, 0} : util::Vec3{1.3, -0.5, 0};
    busy_stats.add(channel_
                       .observe(antenna_, {2.0, 0, 0}, 0.0, {{person, 0.5}},
                                5, rng_)
                       .phase_rad);
  }
  EXPECT_GT(busy_stats.stddev(), clear_stats.stddev() * 1.5);
}

TEST(RfChannel, ZeroNoiseReturnsTheQuantizedNoiseFreeObservation) {
  ChannelNoise quiet;
  quiet.phase_noise_stddev_rad = 0.0;
  quiet.rssi_noise_stddev_db = 0.0;
  const ChannelPlan plan = ChannelPlan::china_920_926();
  const RfChannel channel(plan, quiet);
  const Antenna antenna{1, {0, 0, 0}, 8.0};
  const util::Vec3 tag{1.5, 0.5, 0};
  const std::vector<Reflector> reflectors{{{0.9, 0.15, 0}, 0.5}};
  util::Rng rng(17);
  const RfObservation obs =
      channel.observe(antenna, tag, 0.7, reflectors, 3, rng);

  const double lambda = plan.wavelength_m(3);
  const PathSet paths = compute_paths(antenna.position, tag, reflectors);
  const std::complex<double> h = backscatter_channel(paths, lambda, 0.7);
  const std::complex<double> h_los =
      backscatter_channel(PathSet{paths.los_m, {}, {}}, lambda, 0.7);
  const double q_phase = quiet.phase_quantum_rad;
  EXPECT_EQ(obs.phase_rad,
            util::wrap_to_2pi(std::round(util::wrap_to_2pi(std::arg(h)) /
                                         q_phase) *
                              q_phase));
  const double rssi =
      backscatter_rssi_dbm(paths.los_m, lambda, 32.5, antenna.gain_dbi - 18.0) +
      20.0 * std::log10(std::abs(h) / std::abs(h_los));
  EXPECT_EQ(obs.rssi_dbm, std::round(rssi / 0.5) * 0.5);
  // No draw was taken.
  util::Rng fresh(17);
  EXPECT_EQ(rng.uniform(), fresh.uniform());
}

}  // namespace
}  // namespace tagwatch::rf
