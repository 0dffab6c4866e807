// Differential property tests for the incremental cross-cycle planner:
// under randomized per-cycle churn (arrivals, departures, target flips)
// IncrementalPlanner::plan_cycle must stay plan-equivalent — bit-identical
// selections, costs, fallback flag and covered union — to the from-scratch
// oracle (GreedyCoverScheduler over a fresh BitmaskIndex), every cycle,
// including across the churn-threshold fallback boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/incremental_planner.hpp"
#include "core/setcover.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {
namespace {

/// Scene under churn: EPC → is_target, kept sorted by the map ordering so
/// the extracted vectors match CycleReport's sorted/deduplicated contract.
class ChurnScene {
 public:
  ChurnScene(std::size_t n, std::size_t n_targets, util::Rng& rng,
             std::size_t bits = util::Epc::kBits96)
      : bits_(bits) {
    while (tags_.size() < n) tags_.emplace(util::Epc::random(rng, bits_), false);
    set_random_targets(n_targets, rng);
  }

  void churn(std::size_t departures, std::size_t arrivals,
             std::size_t flips, util::Rng& rng) {
    for (std::size_t i = 0; i < departures && tags_.size() > 1; ++i) {
      tags_.erase(random_it(rng));
    }
    arrive(arrivals, false, rng);
    for (std::size_t i = 0; i < flips; ++i) {
      auto it = random_it(rng);
      it->second = !it->second;
    }
    ensure_target(rng);
  }

  /// Adds `n` tags not yet in the scene, as targets when `as_targets`.
  void arrive(std::size_t n, bool as_targets, util::Rng& rng) {
    for (std::size_t added = 0; added < n;) {
      if (tags_.emplace(util::Epc::random(rng, bits_), as_targets).second) {
        ++added;
      }
    }
  }

  /// Turns random targets back into plain tags until `k` remain.
  void keep_targets(std::size_t k, util::Rng& rng) {
    for (std::size_t n = targets().size(); n > k;) {
      auto it = random_it(rng);
      if (it->second) {
        it->second = false;
        --n;
      }
    }
  }

  void set_random_targets(std::size_t n_targets, util::Rng& rng) {
    for (auto& [epc, is_target] : tags_) is_target = false;
    for (std::size_t i = 0; i < n_targets; ++i) random_it(rng)->second = true;
    ensure_target(rng);
  }

  std::vector<util::Epc> scene() const {
    std::vector<util::Epc> out;
    out.reserve(tags_.size());
    for (const auto& [epc, is_target] : tags_) out.push_back(epc);
    return out;
  }

  std::vector<util::Epc> targets() const {
    std::vector<util::Epc> out;
    for (const auto& [epc, is_target] : tags_) {
      if (is_target) out.push_back(epc);
    }
    return out;
  }

 private:
  std::map<util::Epc, bool>::iterator random_it(util::Rng& rng) {
    auto it = tags_.begin();
    std::advance(it, rng.below(static_cast<std::uint32_t>(tags_.size())));
    return it;
  }

  void ensure_target(util::Rng& rng) {
    for (const auto& [epc, is_target] : tags_) {
      if (is_target) return;
    }
    random_it(rng)->second = true;
  }

  std::size_t bits_;
  std::map<util::Epc, bool> tags_;
};

Schedule oracle_plan(
    const std::vector<util::Epc>& scene, const std::vector<util::Epc>& targets,
    const InventoryCostModel& cost = InventoryCostModel::paper_fit()) {
  const BitmaskIndex index(scene);
  const GreedyCoverScheduler scheduler(cost);
  return scheduler.plan(index, index.bitmap_of(targets));
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

void expect_cycle_matches_oracle(IncrementalPlanner& planner,
                                 const ChurnScene& world) {
  const auto scene = world.scene();
  const auto targets = world.targets();
  const Schedule fast = planner.plan_cycle(scene, targets);
  expect_schedules_identical(fast,
                             oracle_plan(scene, targets, planner.cost_model()));
}

/// Conveyor churn at fleet scale: each cycle 4 arrivals join as targets,
/// 4 random tags (targets included) depart, and the target set is trimmed
/// to 4–10, checked against the oracle every cycle.  The trimming flips
/// decide whether a cycle crosses the churn threshold.
void expect_conveyor_churn_matches_oracle(IncrementalPlanner& planner,
                                          ChurnScene& world, util::Rng& rng,
                                          int cycles) {
  expect_cycle_matches_oracle(planner, world);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    world.churn(4, 0, 0, rng);
    world.arrive(4, true, rng);
    world.keep_targets(4 + rng.below(7), rng);
    SCOPED_TRACE(cycle);
    expect_cycle_matches_oracle(planner, world);
  }
}

/// Random scene churn and 1..max_targets fresh targets per cycle under
/// `cost`, checked against the oracle every cycle.
void expect_churn_matches_oracle(const InventoryCostModel& cost,
                                 std::uint64_t seed,
                                 std::uint32_t max_targets,
                                 std::size_t bits = util::Epc::kBits96) {
  util::Rng rng(seed);
  ChurnScene world(512, max_targets, rng, bits);
  IncrementalPlanner planner(cost, 0.25);
  expect_cycle_matches_oracle(planner, world);
  for (int cycle = 0; cycle < 12; ++cycle) {
    world.churn(rng.below(8), rng.below(8), 0, rng);
    world.set_random_targets(1 + rng.below(max_targets), rng);
    SCOPED_TRACE(cycle);
    expect_cycle_matches_oracle(planner, world);
  }
  EXPECT_EQ(planner.stats().full_rebuilds, 1u);
}

TEST(IncrementalPlanner, FirstCycleMatchesOracleAcrossScales) {
  util::Rng rng(2017);
  for (const std::size_t n : {1u, 2u, 64u, 256u, 1024u}) {
    ChurnScene world(n, 1 + n / 64, rng);
    IncrementalPlanner planner(InventoryCostModel::paper_fit());
    expect_cycle_matches_oracle(planner, world);
    EXPECT_EQ(planner.stats().full_rebuilds, 1u) << "scene " << n;
  }
}

TEST(IncrementalPlanner, RandomChurnStaysEquivalentEveryCycle) {
  util::Rng rng(90210);
  ChurnScene world(1024, 24, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.25);
  expect_cycle_matches_oracle(planner, world);
  for (int cycle = 0; cycle < 30; ++cycle) {
    world.churn(rng.below(12), rng.below(12), rng.below(16), rng);
    SCOPED_TRACE(cycle);
    expect_cycle_matches_oracle(planner, world);
  }
  EXPECT_GE(planner.stats().incremental_cycles, 25u);
  EXPECT_EQ(planner.stats().cycles, 31u);
}

TEST(IncrementalPlanner, HeavyTargetChurnStaysEquivalent) {
  util::Rng rng(551);
  ChurnScene world(512, 8, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.5);
  expect_cycle_matches_oracle(planner, world);
  for (int cycle = 0; cycle < 12; ++cycle) {
    // Stationary population; only the mover (target) set flips.
    world.set_random_targets(4 + rng.below(24), rng);
    SCOPED_TRACE(cycle);
    expect_cycle_matches_oracle(planner, world);
  }
}

TEST(IncrementalPlanner, ClusteredEpcsStayEquivalent) {
  util::Rng rng(77);
  // Sequential serials share long prefixes: deep tries, dense branch use.
  std::map<std::uint64_t, bool> serials;
  while (serials.size() < 256) serials.emplace(rng.below(512), false);
  std::vector<util::Epc> scene;
  for (const auto& [serial, unused] : serials) {
    scene.push_back(util::Epc::from_serial(serial));
  }
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.5);
  for (int cycle = 0; cycle < 8; ++cycle) {
    std::vector<util::Epc> targets;
    for (const util::Epc& epc : scene) {
      if (rng.below(16) == 0) targets.push_back(epc);
    }
    if (targets.empty()) targets.push_back(scene[rng.below(256)]);
    SCOPED_TRACE(cycle);
    expect_schedules_identical(planner.plan_cycle(scene, targets),
                               oracle_plan(scene, targets));
  }
}

TEST(IncrementalPlanner, SixteenThousandTagLightChurn) {
  util::Rng rng(16384);
  ChurnScene world(16384, 96, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.2);
  expect_cycle_matches_oracle(planner, world);
  for (int cycle = 0; cycle < 3; ++cycle) {
    world.churn(40, 40, 30, rng);
    SCOPED_TRACE(cycle);
    expect_cycle_matches_oracle(planner, world);
  }
  EXPECT_EQ(planner.stats().full_rebuilds, 1u);
  EXPECT_EQ(planner.stats().incremental_cycles, 3u);
}

TEST(IncrementalPlanner, FallbackBoundaryCrossingsStayEquivalent) {
  util::Rng rng(313);
  ChurnScene world(512, 12, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.05);
  expect_cycle_matches_oracle(planner, world);
  EXPECT_TRUE(planner.stats().last_was_rebuild);
  for (int wave = 0; wave < 4; ++wave) {
    // Below threshold: 512 tags · 0.05 = 25 events allowed; stay under.
    world.churn(4, 4, 4, rng);
    SCOPED_TRACE(wave);
    expect_cycle_matches_oracle(planner, world);
    EXPECT_FALSE(planner.stats().last_was_rebuild);
    EXPECT_LE(planner.stats().last_churn, 0.05);
    // Above threshold: force a rebuild, then verify equivalence held.
    world.churn(40, 40, 20, rng);
    expect_cycle_matches_oracle(planner, world);
    EXPECT_TRUE(planner.stats().last_was_rebuild);
    EXPECT_GT(planner.stats().last_churn, 0.05);
  }
  EXPECT_EQ(planner.stats().full_rebuilds, 5u);
  EXPECT_EQ(planner.stats().incremental_cycles, 4u);
}

TEST(IncrementalPlanner, RepeatedInputsReturnTheSamePlan) {
  util::Rng rng(4242);
  ChurnScene world(512, 12, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit());
  const Schedule first = planner.plan_cycle(world.scene(), world.targets());
  const std::uint64_t incremental = planner.stats().incremental_cycles;
  const std::size_t live_rows = planner.stats().live_rows;
  expect_schedules_identical(
      planner.plan_cycle(world.scene(), world.targets()), first);
  EXPECT_FALSE(planner.stats().last_was_rebuild);
  EXPECT_EQ(planner.stats().last_churn, 0.0);
  EXPECT_EQ(planner.stats().incremental_cycles, incremental + 1);
  EXPECT_EQ(planner.stats().full_rebuilds, 1u);
  EXPECT_EQ(planner.stats().cycles, 2u);
  EXPECT_EQ(planner.stats().live_rows, live_rows);
}

TEST(IncrementalPlanner, RepeatedAndRevertedCyclesStayEquivalent) {
  util::Rng rng(1717);
  ChurnScene world(768, 16, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.25);
  expect_cycle_matches_oracle(planner, world);
  for (int cycle = 0; cycle < 16; ++cycle) {
    SCOPED_TRACE(cycle);
    if (cycle % 2 == 0) {
      world.churn(rng.below(8), rng.below(8), rng.below(10), rng);
    }
    // Odd cycles repeat the previous inputs: the reused plan.
    expect_cycle_matches_oracle(planner, world);
    if (cycle % 2 == 1) {
      EXPECT_EQ(planner.stats().last_churn, 0.0);
    }
  }
  // A -> B -> A: one target flips off, then back on.
  const std::vector<util::Epc> scene = world.scene();
  const std::vector<util::Epc> a = world.targets();
  ASSERT_GE(a.size(), 2u);
  std::vector<util::Epc> b = a;
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(rng.below(
                          static_cast<std::uint32_t>(b.size()))));
  for (const auto& targets : {b, a, a}) {
    expect_schedules_identical(planner.plan_cycle(scene, targets),
                               oracle_plan(scene, targets));
    EXPECT_FALSE(planner.stats().last_was_rebuild);
  }
  EXPECT_EQ(planner.stats().last_churn, 0.0);
  EXPECT_EQ(planner.stats().full_rebuilds, 1u);
}

TEST(IncrementalPlanner, NearFlatCostModelStaysEquivalent) {
  // The slope clamp InventoryCostModel::fit() can return: dominated rows
  // still cost strictly more, by a margin far above double rounding.
  expect_churn_matches_oracle(InventoryCostModel(0.019, 1e-9), 808, 16);
}

TEST(IncrementalPlanner, ShortEpcsSharingSuffixClassesStayEquivalent) {
  // 12- and 16-bit EPCs: the tries end in suffix classes shared by several
  // tags (and targets), and a target's single-target rows of equal count
  // tie on gain under the slope clamp, so the tie key alone must pick the
  // one row the greedy seeds for it.
  expect_churn_matches_oracle(InventoryCostModel(0.019, 1e-9), 1616, 16, 16);
  expect_churn_matches_oracle(InventoryCostModel(0.019, 1e-9), 808, 16, 12);
}

TEST(IncrementalPlanner, UnseparableCostModelStaysEquivalent) {
  // Every C(n) rounds to the same double: gains tie and the tie key picks
  // the shortest mask on a lone target's path, a row with a blob below
  // it, so no row may be skipped as dominated.
  expect_churn_matches_oracle(InventoryCostModel(0.019, 1e-300), 909, 3);
}

TEST(IncrementalPlanner, FleetSizedConveyorChurnStaysEquivalent) {
  util::Rng rng(2017);
  ChurnScene world(64, 6, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit());
  expect_conveyor_churn_matches_oracle(planner, world, rng, 48);
  EXPECT_GE(planner.stats().full_rebuilds, 5u);
  EXPECT_GE(planner.stats().incremental_cycles, 5u);
}

TEST(IncrementalPlanner, BackToBackRebuildsStayEquivalentSerialAndPooled) {
  // Threshold 0 rebuilds on every delta; rebuild() asserts that the edge
  // table then holds exactly the rows it built, serial and pooled alike.
  util::TaskPool pool(2);
  for (util::TaskPool* p : {static_cast<util::TaskPool*>(nullptr), &pool}) {
    util::Rng rng(4242);
    ChurnScene world(64, 6, rng);
    IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.0, p);
    expect_conveyor_churn_matches_oracle(planner, world, rng, 12);
    EXPECT_EQ(planner.stats().full_rebuilds, 13u);
  }
}

TEST(IncrementalPlanner, ZeroThresholdRebuildsOnAnyDelta) {
  util::Rng rng(99);
  ChurnScene world(128, 4, rng);
  IncrementalPlanner planner(InventoryCostModel::paper_fit(), 0.0);
  expect_cycle_matches_oracle(planner, world);
  world.churn(1, 1, 0, rng);
  expect_cycle_matches_oracle(planner, world);
  EXPECT_TRUE(planner.stats().last_was_rebuild);
  // No delta at all: churn 0.0 is not > 0.0, so the index is reused.
  expect_cycle_matches_oracle(planner, world);
  EXPECT_FALSE(planner.stats().last_was_rebuild);
}

TEST(IncrementalPlanner, EpcLengthChangeForcesRebuild) {
  util::Rng rng(128);
  IncrementalPlanner planner(InventoryCostModel::paper_fit());
  std::vector<util::Epc> scene96;
  for (std::uint64_t s = 0; s < 64; ++s) {
    scene96.push_back(util::Epc::from_serial(s));
  }
  planner.plan_cycle(scene96, {scene96[7]});
  std::map<util::Epc, bool> tags;
  while (tags.size() < 64) {
    tags.emplace(util::Epc::random(rng, util::Epc::kBits128), false);
  }
  std::vector<util::Epc> scene128;
  for (const auto& [epc, unused] : tags) scene128.push_back(epc);
  expect_schedules_identical(
      planner.plan_cycle(scene128, {scene128[9]}),
      oracle_plan(scene128, {scene128[9]}));
  EXPECT_EQ(planner.stats().full_rebuilds, 2u);
}

TEST(IncrementalPlanner, InputValidationMatchesOracleContracts) {
  util::Rng rng(5);
  IncrementalPlanner planner(InventoryCostModel::paper_fit());
  const util::Epc a = util::Epc::from_serial(1);
  const util::Epc b = util::Epc::from_serial(2);
  EXPECT_THROW(planner.plan_cycle({}, {a}), std::invalid_argument);
  EXPECT_THROW(planner.plan_cycle({b, a}, {a}), std::invalid_argument);
  EXPECT_THROW(planner.plan_cycle({a, a}, {a}), std::invalid_argument);
  // Unknown targets are ignored (bitmap_of semantics); none left → throw.
  EXPECT_THROW(planner.plan_cycle({a}, {b}), std::invalid_argument);
  // Mixed EPC lengths in one scene are rejected like BitmaskIndex.
  const util::Epc wide = util::Epc::random(rng, util::Epc::kBits128);
  EXPECT_THROW(planner.plan_cycle({a, wide}, {a}), std::invalid_argument);
  EXPECT_THROW(IncrementalPlanner(InventoryCostModel::paper_fit(), -0.1),
               std::invalid_argument);
}

TEST(IncrementalPlanner, UnknownTargetsIgnoredLikeBitmapOf) {
  std::vector<util::Epc> scene;
  for (std::uint64_t s = 0; s < 32; ++s) {
    scene.push_back(util::Epc::from_serial(2 * s));
  }
  std::vector<util::Epc> targets = {scene[3], util::Epc::from_serial(7),
                                    scene[20]};
  std::sort(targets.begin(), targets.end(),
            [](const util::Epc& x, const util::Epc& y) { return x < y; });
  IncrementalPlanner planner(InventoryCostModel::paper_fit());
  expect_schedules_identical(planner.plan_cycle(scene, targets),
                             oracle_plan(scene, targets));
}

}  // namespace
}  // namespace tagwatch::core
