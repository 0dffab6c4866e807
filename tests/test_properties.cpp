// Property-style parameterized sweeps over protocol and scheduler invariants.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/rate_model.hpp"
#include "core/setcover.hpp"
#include "gen2/reader.hpp"
#include "util/circular.hpp"

namespace tagwatch {
namespace {

// gtest names each instance of these sweeps from a byte dump of its
// parameter.  The parameter structs therefore have no padding: a padding
// byte would put indeterminate memory into the ctest name, and the name
// would change from build to build.

// ---------------------------------------------------------------------
// Inventory completeness: for any population size and any policy, a round
// reads every present tag exactly once.
struct InventoryParams {
  std::size_t n_tags;
  gen2::AntiCollisionPolicy policy;
  std::uint32_t initial_q;
};
static_assert(std::has_unique_object_representations_v<InventoryParams>);

class InventoryCompleteness
    : public ::testing::TestWithParam<InventoryParams> {};

TEST_P(InventoryCompleteness, EveryTagReadExactlyOnce) {
  const InventoryParams p = GetParam();
  sim::World world;
  util::Rng rng(7 + p.n_tags);
  for (std::size_t i = 0; i < p.n_tags; ++i) {
    sim::SimTag t;
    t.epc = util::Epc::from_serial(i + 1);
    t.motion = std::make_shared<sim::StaticMotion>(
        util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
    world.add_tag(std::move(t));
  }
  rf::RfChannel channel(rf::ChannelPlan::china_920_926());
  gen2::ReaderConfig cfg;
  cfg.policy = p.policy;
  gen2::Gen2Reader reader(gen2::LinkTiming(gen2::LinkParams::max_throughput()),
                          cfg, world, channel, {{1, {0, 0, 2}, 8.0}},
                          util::Rng(99));
  std::map<std::string, int> read_counts;
  gen2::QueryCommand q;
  q.q = static_cast<std::uint8_t>(p.initial_q);
  const gen2::RoundStats stats = reader.run_inventory_round(
      q, [&read_counts](const rf::TagReading& r) {
        ++read_counts[r.epc.to_hex()];
      });
  EXPECT_EQ(read_counts.size(), p.n_tags);
  for (const auto& [epc, count] : read_counts) {
    EXPECT_EQ(count, 1) << epc;
  }
  EXPECT_EQ(stats.success_slots, p.n_tags);
}

INSTANTIATE_TEST_SUITE_P(
    PopulationSweep, InventoryCompleteness,
    ::testing::Values(
        InventoryParams{1, gen2::AntiCollisionPolicy::kQAdaptive, 4},
        InventoryParams{2, gen2::AntiCollisionPolicy::kQAdaptive, 0},
        InventoryParams{7, gen2::AntiCollisionPolicy::kQAdaptive, 6},
        InventoryParams{33, gen2::AntiCollisionPolicy::kQAdaptive, 4},
        InventoryParams{100, gen2::AntiCollisionPolicy::kQAdaptive, 4},
        InventoryParams{5, gen2::AntiCollisionPolicy::kFixedQ, 4},
        InventoryParams{40, gen2::AntiCollisionPolicy::kFixedQ, 6},
        InventoryParams{3, gen2::AntiCollisionPolicy::kIdealDfsa, 4},
        InventoryParams{64, gen2::AntiCollisionPolicy::kIdealDfsa, 4}));

// ---------------------------------------------------------------------
// Set-cover invariants across population sizes and target fractions.
struct CoverParams {
  std::size_t scene_size;
  std::size_t targets;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<CoverParams>);

class SetCoverInvariants : public ::testing::TestWithParam<CoverParams> {};

TEST_P(SetCoverInvariants, FeasibleAndNoWorseThanNaive) {
  const CoverParams p = GetParam();
  util::Rng rng(p.seed);
  std::vector<util::Epc> scene;
  for (std::size_t i = 0; i < p.scene_size; ++i) {
    scene.push_back(util::Epc::random(rng));
  }
  core::BitmaskIndex index(scene);
  std::vector<util::Epc> target_epcs;
  for (std::size_t i = 0; i < p.targets; ++i) {
    target_epcs.push_back(index.scene()[rng.below(
        static_cast<std::uint32_t>(index.scene_size()))]);
  }
  const auto targets = index.bitmap_of(target_epcs);
  core::GreedyCoverScheduler sched(core::InventoryCostModel::paper_fit());
  const core::Schedule plan = sched.plan(index, targets);
  const core::Schedule naive = sched.naive_plan(index, targets);

  // 1. Feasibility: union of selections covers all targets.
  util::IndicatorBitmap remaining = targets;
  remaining.subtract(plan.covered_union);
  EXPECT_TRUE(remaining.none());
  // 2. Optimality guard: never costlier than naive.
  EXPECT_LE(plan.estimated_cost_s, naive.estimated_cost_s + 1e-12);
  // 3. Selections do not exceed the number of distinct targets.
  EXPECT_LE(plan.selections.size(), targets.count());
  // 4. Every selection contributed at least one new target.
  for (const auto& sel : plan.selections) {
    EXPECT_GE(sel.covered_targets, 1u);
    EXPECT_GE(sel.covered_total, sel.covered_targets);
  }
  // 5. Estimated cost equals the sum of per-selection costs.
  double sum = 0.0;
  for (const auto& sel : plan.selections) {
    sum += sched.cost_model().cost_seconds(sel.covered_total);
  }
  if (!plan.used_naive_fallback) {
    EXPECT_NEAR(plan.estimated_cost_s, sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SceneSweep, SetCoverInvariants,
    ::testing::Values(CoverParams{10, 1, 1}, CoverParams{10, 3, 2},
                      CoverParams{40, 2, 3}, CoverParams{40, 8, 4},
                      CoverParams{100, 5, 5}, CoverParams{100, 20, 6},
                      CoverParams{200, 10, 7}, CoverParams{400, 20, 8},
                      CoverParams{50, 50, 9}));

// ---------------------------------------------------------------------
// Cost-model sanity across a parameter sweep.
class CostModelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CostModelSweep, MergingIsCheaperInTheOperatingRange) {
  // For small populations, C(a + b) ≤ C(a) + C(b): one merged round beats
  // two rounds because the second τ0 is saved — the economic basis of
  // bitmask merging.  The inequality only holds while the slot term
  // n·e·τ̄·ln n stays below τ0's savings, i.e. in Tagwatch's operating
  // range of tens of tags per round.
  const std::size_t a = GetParam();
  const auto m = core::InventoryCostModel::paper_fit();
  for (std::size_t b = 1; b <= 32; b *= 2) {
    if (a + b > 40) continue;
    EXPECT_LE(m.cost_seconds(a + b), m.cost_seconds(a) + m.cost_seconds(b))
        << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CostModelSweep,
                         ::testing::Values(1, 2, 5, 10, 20, 32));

TEST(CostModel, MergingStopsPayingAtScale) {
  // The flip side — and the economics behind the paper's 20% threshold:
  // once the merged population is large, the extra slot time outgrows the
  // saved start-up cost and merging loses.
  const auto m = core::InventoryCostModel::paper_fit();
  EXPECT_GT(m.cost_seconds(400), m.cost_seconds(200) + m.cost_seconds(200));
}

// ---------------------------------------------------------------------
// Circular-distance properties under a dense value sweep.
class CircularSweep : public ::testing::TestWithParam<double> {};

TEST_P(CircularSweep, DistanceInvariants) {
  const double a = GetParam();
  util::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const double b = rng.uniform(0.0, util::kTwoPi);
    const double d = util::circular_distance(a, b);
    // Identity, symmetry, shift invariance, wrap invariance.
    EXPECT_NEAR(util::circular_distance(a, a), 0.0, 1e-12);
    EXPECT_NEAR(d, util::circular_distance(b, a), 1e-12);
    EXPECT_NEAR(d, util::circular_distance(a + 1.3, b + 1.3), 1e-9);
    EXPECT_NEAR(d, util::circular_distance(a + util::kTwoPi, b), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, CircularSweep,
                         ::testing::Values(0.0, 0.01, 1.0, 3.14159, 4.7,
                                           6.27, 6.283));

// ---------------------------------------------------------------------
// Reader determinism: identical seeds → identical rounds.
TEST(Determinism, SameSeedSameRound) {
  auto run_once = [](std::uint64_t seed) {
    sim::World world;
    util::Rng rng(seed);
    for (std::size_t i = 0; i < 20; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(i + 1);
      t.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
      world.add_tag(std::move(t));
    }
    rf::RfChannel channel(rf::ChannelPlan::china_920_926());
    gen2::Gen2Reader reader(
        gen2::LinkTiming(gen2::LinkParams::max_throughput()),
        gen2::ReaderConfig{}, world, channel, {{1, {0, 0, 2}, 8.0}},
        util::Rng(seed));
    std::vector<std::pair<std::string, std::int64_t>> reads;
    reader.run_inventory_round(gen2::QueryCommand{},
                               [&reads](const rf::TagReading& r) {
                                 reads.emplace_back(r.epc.to_hex(),
                                                    r.timestamp.count());
                               });
    return reads;
  };
  EXPECT_EQ(run_once(12345), run_once(12345));
  EXPECT_NE(run_once(12345), run_once(54321));
}

}  // namespace
}  // namespace tagwatch
