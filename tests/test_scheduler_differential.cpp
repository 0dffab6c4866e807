// Differential property tests for the greedy cover: over the same
// candidate table, the lazy-greedy heap must be plan-equivalent to the
// dense full rescan on randomized scenes up to 2,048 tags, and the
// IndicatorBitmap word-level operators must match a naive per-bit model.
#include <gtest/gtest.h>

#include <vector>

#include "core/setcover.hpp"
#include "util/rng.hpp"

namespace tagwatch::core {
namespace {

std::vector<util::Epc> random_scene(std::size_t n, util::Rng& rng) {
  std::vector<util::Epc> scene;
  scene.reserve(n);
  for (std::size_t i = 0; i < n; ++i) scene.push_back(util::Epc::random(rng));
  return scene;
}

util::IndicatorBitmap random_targets(const BitmaskIndex& index,
                                     std::size_t n_targets, util::Rng& rng) {
  std::vector<util::Epc> target_epcs;
  while (target_epcs.size() < n_targets) {
    target_epcs.push_back(
        index.scene()[rng.below(static_cast<std::uint32_t>(
            index.scene_size()))]);
  }
  return index.bitmap_of(target_epcs);
}

void expect_schedules_identical(const Schedule& fast,
                                const Schedule& reference) {
  ASSERT_EQ(fast.selections.size(), reference.selections.size());
  for (std::size_t i = 0; i < fast.selections.size(); ++i) {
    EXPECT_EQ(fast.selections[i].bitmask, reference.selections[i].bitmask)
        << "selection " << i;
    EXPECT_EQ(fast.selections[i].covered_total,
              reference.selections[i].covered_total)
        << "selection " << i;
    EXPECT_EQ(fast.selections[i].covered_targets,
              reference.selections[i].covered_targets)
        << "selection " << i;
  }
  // Costs accumulate in the same selection order: bit-identical doubles.
  EXPECT_EQ(fast.estimated_cost_s, reference.estimated_cost_s);
  EXPECT_EQ(fast.used_naive_fallback, reference.used_naive_fallback);
  EXPECT_EQ(fast.covered_union, reference.covered_union);
}

TEST(SchedulerDifferential, PlansIdenticalAcrossScales) {
  util::Rng rng(4242);
  const GreedyCoverScheduler lazy(InventoryCostModel::paper_fit(),
                                  GreedyEvaluation::kLazy);
  const GreedyCoverScheduler dense(InventoryCostModel::paper_fit(),
                                   GreedyEvaluation::kDense);
  for (const std::size_t n : {256u, 512u, 1024u, 2048u}) {
    const BitmaskIndex index(random_scene(n, rng));
    const auto targets = random_targets(index, 2 + n / 128, rng);
    expect_schedules_identical(lazy.plan(index, targets),
                               dense.plan(index, targets));
  }
}

TEST(SchedulerDifferential, PlansIdenticalUnderClusteredEpcs) {
  // Clustered EPCs (shared high bits) stress dedup and tie-breaking: many
  // candidate rows collapse to the same coverage and many gains tie.
  util::Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<util::Epc> scene;
    const util::Epc base = util::Epc::random(rng);
    for (int i = 0; i < 300; ++i) {
      util::BitString bits = base.bits();
      // Perturb only the low bits so prefixes collide aggressively.
      for (std::size_t b = bits.size() - 12; b < bits.size(); ++b) {
        if (rng.chance(0.5)) bits.set_bit(b, !bits.bit(b));
      }
      scene.emplace_back(bits);
    }
    const BitmaskIndex index(scene);
    const auto targets = random_targets(index, 6, rng);
    const GreedyCoverScheduler lazy(InventoryCostModel::paper_fit(),
                                    GreedyEvaluation::kLazy);
    const GreedyCoverScheduler dense(InventoryCostModel::paper_fit(),
                                     GreedyEvaluation::kDense);
    expect_schedules_identical(lazy.plan(index, targets),
                               dense.plan(index, targets));
  }
}

TEST(SchedulerDifferential, PlansIdenticalUnderCheapStartCostModel) {
  // A negligible τ0 flips the economics (no merging economy) and exercises
  // the naive worst-case guard on both paths.
  util::Rng rng(99);
  const InventoryCostModel cheap(1e-7, 0.00018);
  const GreedyCoverScheduler lazy(cheap, GreedyEvaluation::kLazy);
  const GreedyCoverScheduler dense(cheap, GreedyEvaluation::kDense);
  for (const std::size_t n : {256u, 1024u}) {
    const BitmaskIndex index(random_scene(n, rng));
    const auto targets = random_targets(index, 8, rng);
    expect_schedules_identical(lazy.plan(index, targets),
                               dense.plan(index, targets));
  }
}

TEST(SchedulerDifferential, WordOpsMatchPerBitReferenceModel) {
  // Randomized IndicatorBitmap algebra against a vector<bool> model, at a
  // size with a partial tail word.
  util::Rng rng(31);
  const std::size_t n = 709;
  util::IndicatorBitmap v(n);
  std::vector<bool> model(n, false);
  for (int step = 0; step < 120; ++step) {
    util::IndicatorBitmap other(n);
    std::vector<bool> other_model(n, false);
    for (int k = 0; k < 150; ++k) {
      const auto i = static_cast<std::size_t>(rng.below(n));
      other.set(i);
      other_model[i] = true;
    }
    // Check and_count against the model before mutating.
    std::size_t expected_and = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (model[i] && other_model[i]) ++expected_and;
    }
    ASSERT_EQ(v.and_count(other), expected_and) << "step " << step;

    switch (rng.below(4)) {
      case 0:
        v.merge(other);
        for (std::size_t i = 0; i < n; ++i) {
          model[i] = model[i] || other_model[i];
        }
        break;
      case 1:
        v.subtract(other);
        for (std::size_t i = 0; i < n; ++i) {
          model[i] = model[i] && !other_model[i];
        }
        break;
      case 2:
        v.and_with(other);
        for (std::size_t i = 0; i < n; ++i) {
          model[i] = model[i] && other_model[i];
        }
        break;
      default:
        v.fill();
        model.assign(n, true);
        break;
    }
    std::size_t expected_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (model[i]) ++expected_count;
    }
    ASSERT_EQ(v.count(), expected_count) << "step " << step;
    for (std::size_t i = 0; i < n; i += 53) {
      ASSERT_EQ(v.test(i), model[i]) << "step " << step << " bit " << i;
    }
  }
}

}  // namespace
}  // namespace tagwatch::core
