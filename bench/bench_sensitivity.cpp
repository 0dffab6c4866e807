// E5 — Fig. 13: detection sensitivity vs displacement (1–5 cm).
//
// A trained stationary tag is displaced by d ∈ {1..5} cm in a random
// direction; a detection is successful if any post-displacement reading in
// a short window is flagged as motion.  20 trials per displacement, for
// the phase-based and the RSS-based detector.
//
// Paper shape targets: phase detects ~80% at 1 cm, 87% at 2 cm, 99% at
// 3 cm; RSS detects ~9% at 1 cm and only reaches ~76% at 5 cm.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_report.hpp"
#include "core/detectors.hpp"
#include "gen2/reader.hpp"
#include "util/circular.hpp"

using namespace tagwatch;

namespace {

/// One trial: train on a static tag, displace it, and test whether the
/// detector notices within the next 12 readings.
bool trial(core::DetectorKind kind, double displacement_m, std::uint64_t seed) {
  util::Rng rng(seed);
  sim::World world;
  const util::Vec3 origin{rng.uniform(0.8, 2.5), rng.uniform(-1.5, 1.5), 0.0};
  const double direction = rng.uniform(0.0, util::kTwoPi);
  const util::Vec3 offset{displacement_m * std::cos(direction),
                          displacement_m * std::sin(direction), 0.0};
  sim::SimTag tag;
  tag.epc = util::Epc::from_serial(1);
  tag.motion = std::make_shared<sim::StepDisplacement>(origin, offset,
                                                       util::sec(30));
  tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
  world.add_tag(std::move(tag));
  // Static clutter (shelving, walls): creates standing-wave fading so RSS
  // varies with position at all — without it RSS sees only the sub-dB
  // path-loss change of a few-cm move, which quantization erases.
  world.add_reflector({std::make_shared<sim::StaticMotion>(
                           util::Vec3{rng.uniform(0.5, 2.0), 1.2, 0.0}),
                       0.5});
  world.add_reflector({std::make_shared<sim::StaticMotion>(
                           util::Vec3{1.8, rng.uniform(-1.5, 0.5), 0.5}),
                       0.5});

  rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
  // Multiple antennas give angular diversity: a displacement tangential to
  // one antenna's line of sight is radial to another's, so some antenna
  // always sees a large phase change (the paper's testbed has four).
  const std::vector<rf::Antenna> antennas{
      {1, {0, 0, 2}, 8.0}, {2, {3, 0, 1}, 8.0}, {3, {0, 3, 1}, 8.0}};
  gen2::Gen2Reader reader(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                          gen2::ReaderConfig{}, world, channel, antennas,
                          util::Rng(seed + 7));

  const auto detector = core::make_detector(kind);
  bool detected = false;
  std::size_t post_readings = 0;
  std::size_t round = 0;
  gen2::InvFlag target = gen2::InvFlag::kA;
  while (world.now() < util::sec(32) && post_readings < 12) {
    reader.set_active_antenna(round++ % antennas.size());
    gen2::QueryCommand q;
    q.target = target;
    target = target == gen2::InvFlag::kA ? gen2::InvFlag::kB
                                         : gen2::InvFlag::kA;
    reader.run_inventory_round(q, [&](const rf::TagReading& r) {
      const bool moving =
          detector->update(r) == core::MotionVerdict::kMoving;
      if (r.timestamp >= util::sec(30)) {
        ++post_readings;
        if (moving) detected = true;
      }
    });
  }
  return detected;
}

}  // namespace

int main() {
  constexpr int kTrials = 20;  // paper: 20 repetitions per displacement
  std::printf("E5 / Fig. 13 — detection sensitivity vs displacement "
              "(%d trials each)\n\n", kTrials);
  std::printf("%-12s  %10s  %10s\n", "displacement", "Phase-MoG", "RSS-MoG");
  bench::BenchReport report("sensitivity", /*seed=*/1000);
  bool in_band = true;
  for (int cm = 1; cm <= 5; ++cm) {
    int phase_hits = 0, rss_hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      const auto seed = static_cast<std::uint64_t>(cm * 1000 + t);
      if (trial(core::DetectorKind::kPhaseMog, cm / 100.0, seed)) ++phase_hits;
      if (trial(core::DetectorKind::kRssMog, cm / 100.0, seed)) ++rss_hits;
    }
    std::printf("%9d cm  %9.0f%%  %9.0f%%\n", cm,
                100.0 * phase_hits / kTrials, 100.0 * rss_hits / kTrials);
    const std::string at = "_at_" + std::to_string(cm) + "cm";
    report.add("phase_mog_detection" + at,
               static_cast<double>(phase_hits) / kTrials, "ratio");
    report.add("rss_mog_detection" + at,
               static_cast<double>(rss_hits) / kTrials, "ratio");
    // Paper band: phase detects >= 95% from 2 cm on and beats RSS at
    // every displacement.
    in_band = in_band && phase_hits > rss_hits &&
              (cm < 2 || 100 * phase_hits >= 95 * kTrials);
  }
  std::printf("\npaper: phase 87%%@2cm, 99%%@3cm; RSS 9%%@1cm ... 76%%@5cm.\n");
  std::printf("(a 1 cm displacement doubles to 2 cm of round-trip path — the "
              "phase's natural amplifier)\n");
  std::printf("wrote %s\n", report.write().c_str());
  if (!in_band) {
    std::printf("FAIL: Phase-MoG must detect >= 95%% of trials at every "
                "displacement >= 2 cm and beat RSS-MoG at every one\n");
    return 1;
  }
  return 0;
}
