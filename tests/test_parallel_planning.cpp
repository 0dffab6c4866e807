// Differential tests for parallel Phase-II planning: candidate generation
// sharded across util::TaskPool must be invisible in the output.
// Candidate tables, greedy-cover schedules and incremental-planner plans
// are compared for byte-identity against the serial oracle at every
// thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "core/bitmask.hpp"
#include "core/incremental_planner.hpp"
#include "core/setcover.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {
namespace {

std::vector<util::Epc> random_scene(std::size_t n, util::Rng& rng) {
  std::map<util::Epc, bool> uniq;
  while (uniq.size() < n) uniq.emplace(util::Epc::random(rng), false);
  std::vector<util::Epc> out;
  out.reserve(n);
  for (const auto& [epc, unused] : uniq) out.push_back(epc);
  return out;
}

util::IndicatorBitmap random_targets(std::size_t scene_size,
                                     std::size_t n_targets, util::Rng& rng) {
  util::IndicatorBitmap targets(scene_size);
  while (targets.count() < n_targets) {
    targets.set(rng.below(static_cast<std::uint32_t>(scene_size)));
  }
  return targets;
}

void expect_candidates_identical(const std::vector<BitmaskCandidate>& got,
                                 const std::vector<BitmaskCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].bitmask, want[i].bitmask) << "row " << i;
    EXPECT_EQ(got[i].coverage, want[i].coverage) << "row " << i;
    EXPECT_EQ(got[i].targets_covered, want[i].targets_covered) << "row " << i;
  }
}

void expect_schedules_identical(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t i = 0; i < got.selections.size(); ++i) {
    EXPECT_EQ(got.selections[i].bitmask, want.selections[i].bitmask)
        << "selection " << i;
    EXPECT_EQ(got.selections[i].covered_total,
              want.selections[i].covered_total)
        << "selection " << i;
    EXPECT_EQ(got.selections[i].covered_targets,
              want.selections[i].covered_targets)
        << "selection " << i;
  }
  EXPECT_EQ(got.estimated_cost_s, want.estimated_cost_s);
  EXPECT_EQ(got.used_naive_fallback, want.used_naive_fallback);
  EXPECT_EQ(got.covered_union, want.covered_union);
}

TEST(ParallelPlanning, CandidateTableIdenticalAtEveryThreadCount) {
  util::Rng rng(0xca41d);
  for (const std::size_t n : {32u, 256u, 1024u}) {
    const BitmaskIndex index(random_scene(n, rng));
    const util::IndicatorBitmap targets =
        random_targets(n, 2 + n / 32, rng);
    const std::vector<BitmaskCandidate> serial = index.candidates_for(targets);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "scene " << n << " threads "
                                      << threads);
      util::TaskPool pool(threads);
      expect_candidates_identical(index.candidates_for(targets, &pool),
                                  serial);
    }
  }
}

TEST(ParallelPlanning, FewTargetsDegenerateToTheSerialSweep) {
  // Fewer targets than executors: the sweep shards into one chunk per
  // target, never an empty one, and stays identical to the null pool.
  util::Rng rng(0x5e71a1);
  const BitmaskIndex index(random_scene(128, rng));
  const util::IndicatorBitmap targets = random_targets(128, 3, rng);
  util::TaskPool pool(8);
  expect_candidates_identical(index.candidates_for(targets, &pool),
                              index.candidates_for(targets));
}

TEST(ParallelPlanning, NullAndSingleThreadPoolsAreTheSerialPath) {
  util::Rng rng(0x0901);
  const BitmaskIndex index(random_scene(96, rng));
  const util::IndicatorBitmap targets = random_targets(96, 9, rng);
  const std::vector<BitmaskCandidate> serial = index.candidates_for(targets);
  expect_candidates_identical(index.candidates_for(targets, nullptr), serial);
  util::TaskPool one(1);
  expect_candidates_identical(index.candidates_for(targets, &one), serial);
}

TEST(ParallelPlanning, ScheduleIdenticalAcrossThreads) {
  util::Rng rng(0x91a2);
  const BitmaskIndex index(random_scene(512, rng));
  const util::IndicatorBitmap targets = random_targets(512, 24, rng);
  const GreedyCoverScheduler scheduler(InventoryCostModel::paper_fit());

  // Oracle: serial candidate generation.
  const Schedule oracle = scheduler.plan(index, targets);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::TaskPool pool(threads);
    expect_schedules_identical(scheduler.plan(index, targets, &pool), oracle);
  }
}

TEST(ParallelPlanning, IncrementalRebuildIdenticalAcrossThreads) {
  util::Rng rng(0x9eb01d);
  const std::vector<util::Epc> scene = random_scene(768, rng);
  std::vector<util::Epc> targets;
  for (const util::Epc& epc : scene) {
    if (rng.below(24) == 0) targets.push_back(epc);
  }
  if (targets.empty()) targets.push_back(scene.front());

  // Oracle: serial rebuild.
  IncrementalPlanner serial(InventoryCostModel::paper_fit());
  const Schedule oracle = serial.plan_cycle(scene, targets);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::TaskPool pool(threads);
    IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.15, &pool);
    expect_schedules_identical(planner.plan_cycle(scene, targets), oracle);
    EXPECT_EQ(planner.stats().full_rebuilds, 1u);
  }
}

TEST(ParallelPlanning, DeltasAfterParallelRebuildStayEquivalent) {
  // The spliced arena must be structurally sound for later incremental
  // cycles: churn the scene and keep comparing a pooled planner against a
  // fresh from-scratch oracle every cycle.
  util::Rng rng(0xde17a5);
  std::map<util::Epc, bool> world;
  while (world.size() < 512) world.emplace(util::Epc::random(rng), false);
  auto snapshot = [&world] {
    std::pair<std::vector<util::Epc>, std::vector<util::Epc>> out;
    for (const auto& [epc, is_target] : world) {
      out.first.push_back(epc);
      if (is_target) out.second.push_back(epc);
    }
    return out;
  };
  auto mutate = [&world, &rng](std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) {
      auto it = world.begin();
      std::advance(it, rng.below(static_cast<std::uint32_t>(world.size())));
      switch (rng.below(3)) {
        case 0:
          world.erase(it);
          break;
        case 1:
          world.emplace(util::Epc::random(rng), false);
          break;
        default:
          it->second = !it->second;
          break;
      }
    }
  };

  for (auto& [epc, is_target] : world) is_target = rng.below(24) == 0;
  util::TaskPool pool(4);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.25, &pool);
  const GreedyCoverScheduler scheduler(InventoryCostModel::paper_fit());
  for (int cycle = 0; cycle < 16; ++cycle) {
    SCOPED_TRACE(cycle);
    auto [scene, targets] = snapshot();
    if (targets.empty()) {
      world.begin()->second = true;
      std::tie(scene, targets) = snapshot();
    }
    const BitmaskIndex index(scene);
    expect_schedules_identical(
        planner.plan_cycle(scene, targets),
        scheduler.plan(index, index.bitmap_of(targets)));
    mutate(16);
  }
  EXPECT_GE(planner.stats().incremental_cycles, 10u);
}

}  // namespace
}  // namespace tagwatch::core
