// Exactness and robustness checks:
//   * greedy set cover vs brute-force optimum on small instances
//   * RNG fork independence
//   * time helpers round-trip
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "core/setcover.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tagwatch {
namespace {

/// Brute-force optimal set cover over the candidate list (≤ 20 candidates:
/// enumerate all subsets).
double brute_force_cost(const std::vector<core::BitmaskCandidate>& candidates,
                        const util::IndicatorBitmap& targets,
                        const core::InventoryCostModel& model) {
  const std::size_t m = candidates.size();
  EXPECT_LE(m, 20u) << "instance too large for brute force";
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 1; mask < (1u << m); ++mask) {
    util::IndicatorBitmap remaining = targets;
    double cost = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1u) {
        remaining.subtract(candidates[i].coverage);
        cost += model.cost_seconds(candidates[i].coverage.count());
      }
    }
    if (remaining.none()) best = std::min(best, cost);
  }
  return best;
}

TEST(GreedyExactness, WithinLnNOfOptimumOnSmallInstances) {
  // Greedy weighted set cover carries an H(n') ≈ ln(n')+1 approximation
  // guarantee.  On tiny instances we can verify directly against brute
  // force — and in practice greedy lands on the optimum here.
  const core::InventoryCostModel model = core::InventoryCostModel::paper_fit();
  util::Rng rng(161);
  int instances = 0;
  for (int trial = 0; trial < 40 && instances < 10; ++trial) {
    // Short EPCs keep the candidate count brute-forceable.
    std::vector<util::Epc> scene;
    for (int i = 0; i < 6; ++i) {
      scene.push_back(util::Epc::random(rng, 8));
    }
    core::BitmaskIndex index(scene);
    if (index.scene_size() < 4) continue;  // collisions: skip
    std::vector<util::Epc> target_epcs{index.scene()[0], index.scene()[2]};
    const auto targets = index.bitmap_of(target_epcs);
    const auto candidates = index.candidates_for(targets);
    if (candidates.size() > 20) continue;
    ++instances;

    const core::Schedule plan =
        core::GreedyCoverScheduler(model).plan(index, targets);
    const double optimum = brute_force_cost(candidates, targets, model);
    const double bound =
        optimum * (std::log(static_cast<double>(targets.count())) + 1.0);
    EXPECT_LE(plan.estimated_cost_s, std::max(optimum, bound) + 1e-9)
        << "trial " << trial;
    // Not required by theory, but observed: greedy is optimal on these.
    EXPECT_NEAR(plan.estimated_cost_s, optimum, optimum * 0.5);
  }
  EXPECT_GE(instances, 5);
}

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(util::msec(1500), util::from_seconds(1.5));
  EXPECT_DOUBLE_EQ(util::to_seconds(util::msec(2500)), 2.5);
  EXPECT_DOUBLE_EQ(util::to_millis(util::usec(1500)), 1.5);
  EXPECT_EQ(util::sec(2), util::msec(2000));
  // Round trip through fractional seconds keeps microsecond precision.
  const double s = 123.456789;
  EXPECT_NEAR(util::to_seconds(util::from_seconds(s)), s, 1e-6);
}

TEST(Rng, ForkProducesIndependentStreams) {
  util::Rng parent(163);
  util::Rng child = parent.fork();
  // The child stream differs from the parent's continuation.
  bool any_different = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.uniform_u64(0, 1'000'000) != child.uniform_u64(0, 1'000'000)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
  // And forking is deterministic given the parent's state.
  util::Rng p1(163), p2(163);
  util::Rng c1 = p1.fork(), c2 = p2.fork();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c1.uniform_u64(0, 1'000'000), c2.uniform_u64(0, 1'000'000));
  }
}

TEST(Rng, NormalWithZeroStddevReturnsMean) {
  util::Rng rng(2017);
  util::Rng untouched(2017);
  // sigma = 0 is a point mass: the mean, with no draw taken.
  EXPECT_EQ(rng.normal(1.25, 0.0), 1.25);
  EXPECT_EQ(rng.normal(), untouched.normal());
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
  // sigma > 0 draws exactly what a fresh std::normal_distribution draws.
  util::Rng drawn(99);
  std::mt19937_64 engine(99);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(drawn.normal(0.5, 2.0),
              std::normal_distribution<double>(0.5, 2.0)(engine));
  }
}

}  // namespace
}  // namespace tagwatch
