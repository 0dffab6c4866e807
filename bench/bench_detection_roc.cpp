// E4 — Fig. 12: ROC curves of the four motion detectors.
//
// FPR source: 100 stationary tags in an office with walking people
// (multipath).  TPR source: one tag on a toy train (oval track, 0.7 m/s).
// Sweeping the detection threshold ξ produces (FPR, TPR) pairs per method.
//
// Paper shape targets: Phase-MoG dominates; at FPR 0.2, Phase-MoG and
// Phase-diff reach TPR ≥ 0.99 while RSS-MoG ≈ 0.53 and RSS-diff ≈ 0.12;
// an operating point with TPR ≥ 0.95 at FPR ≤ 0.1 exists for Phase-MoG.
// Exits 1 unless Phase-MoG's best TPR at FPR ≤ 0.10 is at least 0.95 and
// above both RSS methods' (the paper band, ctest paper_detection_roc).
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_report.hpp"
#include "core/detectors.hpp"
#include "gen2/reader.hpp"
#include "util/circular.hpp"

using namespace tagwatch;

namespace {

struct Sample {
  rf::TagReading reading;
  bool moving_truth;
};

/// Generates labeled readings: 100 static office tags with people walking
/// (label: not moving), plus one train tag (label: moving).
std::vector<Sample> generate_samples(std::uint64_t seed) {
  sim::World world;
  util::Rng rng(seed);

  const auto train_motion =
      std::make_shared<sim::CircularTrack>(util::Vec3{1.0, 1.0, 0.0}, 0.2, 0.7);
  sim::SimTag train;
  train.epc = util::Epc::from_serial(9999);
  train.motion = train_motion;
  train.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
  const util::Epc train_epc = train.epc;
  world.add_tag(std::move(train));

  for (int i = 0; i < 100; ++i) {
    sim::SimTag t;
    t.epc = util::Epc::from_serial(static_cast<std::uint64_t>(i) + 1);
    t.motion = std::make_shared<sim::StaticMotion>(
        util::Vec3{rng.uniform(-4, 4), rng.uniform(-4, 4), 0.0});
    t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
    world.add_tag(std::move(t));
  }
  // ~10 people working in the room (§7.1).
  util::Rng walk_rng = rng.fork();
  for (int p = 0; p < 10; ++p) {
    world.add_reflector(
        {std::make_shared<sim::RandomWaypoint>(
             util::Vec3{-5, -5, 0}, util::Vec3{5, 5, 0}, 1.0,
             util::sec(600), walk_rng, util::sec(3)),
         0.3});
  }

  rf::RfChannel channel(rf::ChannelPlan::single(920.625e6));
  gen2::Gen2Reader reader(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                          gen2::ReaderConfig{}, world, channel,
                          {{1, {0, 0, 2}, 8.0}}, util::Rng(seed + 1));

  std::vector<Sample> samples;
  gen2::InvFlag target = gen2::InvFlag::kA;
  while (world.now() < util::sec(600) && samples.size() < 120'000) {
    gen2::QueryCommand q;
    q.q = 6;
    q.target = target;
    target = target == gen2::InvFlag::kA ? gen2::InvFlag::kB
                                         : gen2::InvFlag::kA;
    reader.run_inventory_round(q, [&](const rf::TagReading& r) {
      samples.push_back({r, r.epc == train_epc});
    });
  }
  return samples;
}

struct RocPoint {
  double fpr;
  double tpr;
};

/// Replays the labeled stream through a detector built with threshold `xi`
/// and counts false/true positives.  MoG detectors use ξ as the match
/// threshold; differencing detectors use a proportional threshold.
RocPoint evaluate(core::DetectorKind kind, double xi,
                  const std::vector<Sample>& samples) {
  core::DetectorConfig cfg;
  cfg.phase_mog.match_threshold = xi;
  cfg.rss_mog.match_threshold = xi;
  cfg.phase_diff_threshold_rad = 0.1 * xi;
  cfg.rss_diff_threshold_db = 0.67 * xi;
  // One detector per tag.
  std::unordered_map<util::Epc, std::unique_ptr<core::MotionDetector>> dets;
  std::size_t tp = 0, fn = 0, fp = 0, tn = 0;
  std::size_t warmup_skipped = 0;
  for (const auto& s : samples) {
    auto& det = dets[s.reading.epc];
    if (!det) det = core::make_detector(kind, cfg);
    const bool flagged =
        det->update(s.reading) == core::MotionVerdict::kMoving;
    // Skip the first minute as model warm-up (the paper trains on a long
    // trace before testing FPR).
    if (s.reading.timestamp < util::sec(60)) {
      ++warmup_skipped;
      continue;
    }
    if (s.moving_truth) {
      flagged ? ++tp : ++fn;
    } else {
      flagged ? ++fp : ++tn;
    }
  }
  (void)warmup_skipped;
  return {fp + tn ? static_cast<double>(fp) / static_cast<double>(fp + tn)
                  : 0.0,
          tp + fn ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                  : 0.0};
}

}  // namespace

int main() {
  std::printf("E4 / Fig. 12 — detection ROC (100 static office tags + "
              "walking people vs toy-train tag)\n\n");
  const auto samples = generate_samples(2024);
  std::size_t movers = 0;
  for (const auto& s : samples) movers += s.moving_truth ? 1 : 0;
  std::printf("labeled readings: %zu total, %zu from the mobile tag\n\n",
              samples.size(), movers);

  const std::vector<std::pair<core::DetectorKind, const char*>> methods{
      {core::DetectorKind::kPhaseMog, "Phase-MoG"},
      {core::DetectorKind::kPhaseDiff, "Phase-diff"},
      {core::DetectorKind::kRssMog, "RSS-MoG"},
      {core::DetectorKind::kRssDiff, "RSS-diff"},
  };
  const std::vector<double> xis{0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 9.0, 15.0};

  bench::BenchReport report("detection_roc", /*seed=*/2024);
  std::map<core::DetectorKind, double> best;
  for (const auto& [kind, name] : methods) {
    std::printf("%-10s  %s\n", name, "(xi: FPR -> TPR)");
    double best_tpr_at_01 = 0.0;
    for (const double xi : xis) {
      const RocPoint p = evaluate(kind, xi, samples);
      std::printf("   xi=%-5.1f  FPR=%.3f  TPR=%.3f\n", xi, p.fpr, p.tpr);
      if (p.fpr <= 0.10) best_tpr_at_01 = std::max(best_tpr_at_01, p.tpr);
    }
    std::printf("   best TPR at FPR<=0.10: %.3f\n\n", best_tpr_at_01);
    report.add(std::string(name) + "_best_tpr_at_fpr_010", best_tpr_at_01,
               "ratio");
    best[kind] = best_tpr_at_01;
  }
  std::printf("paper: Phase-MoG achieves TPR >= 0.95 at FPR <= 0.1; "
              "RSS methods trail badly.\n");
  std::printf("wrote %s\n", report.write().c_str());

  // Paper band (ctest paper_detection_roc): the Fig. 12 result above.
  const double mog = best[core::DetectorKind::kPhaseMog];
  if (mog < 0.95 || mog <= best[core::DetectorKind::kRssMog] ||
      mog <= best[core::DetectorKind::kRssDiff]) {
    std::printf("FAIL: Phase-MoG best TPR %.3f at FPR<=0.10 must be >= 0.95 "
                "and above both RSS methods\n",
                mog);
    return 1;
  }
  return 0;
}
