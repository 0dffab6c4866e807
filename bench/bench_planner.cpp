// Phase-II planner bench: the planner-only headlines and the in-bench
// oracles that gate them.  Whole cycles (reader, pipeline, assessment and
// planning together) are perfbench's job; the E8 inter-phase gap is
// bench_schedule_cost's.
//
// Metrics (BENCH_planner.json):
//   * planning_speedup_at_4096 — lazy over dense greedy cover at 4,096 tags
//     and 1,024 targets, each planning over the same candidate sweep
//     (BitmaskIndex::candidates_for), paired min-of-reps.  FAILS unless
//     the two plans are equal.
//   * planning_cycles_per_sec_at_<n> — IncrementalPlanner::plan_cycle passes
//     per second on a churning scene, 4k to 1M tags; only planning is
//     timed, not the churn.  FAILS unless every serial plan equals the
//     4-thread plan; plans_identical = 1 records the pass.
//   * incremental_speedup — the serial from-scratch reference (index
//     build, candidate sweep, lazy greedy) over the incremental planner's
//     amortized per-cycle cost at 65,536 tags.  FAILS unless the
//     mid-trace and final cycles equal the from-scratch oracle.
//   * planning_threads_speedup — the candidate sweep sharded over 4
//     threads against the same sweep serially (report-only: CI boxes may
//     have a single core).
//
// TAGWATCH_BENCH_MAX_N caps the largest scene (floor 4,096) so smoke runs
// stay fast.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/incremental_planner.hpp"
#include "core/setcover.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

using namespace tagwatch;

namespace {

/// An EPC-sorted scene with a fixed-size, EPC-sorted target set, churned
/// one batch of departures, arrivals and mover flips per cycle — the
/// paper's mobility regime, small against the scene so cycles stay on the
/// incremental path.  Each batch costs O(n), so 1M-tag scenes stay cheap.
class ChurnWorld {
 public:
  ChurnWorld(std::size_t n, std::size_t n_targets, std::uint64_t seed)
      : rng_(seed), n_targets_(n_targets) {
    while (scene_.size() < n) arrive(n - scene_.size());
    top_up_targets();
  }

  /// One cycle: `moves` random tags depart, `moves` fresh EPCs arrive, and
  /// moves/8 targets stop moving while as many scene tags start.
  void churn(std::size_t moves) {
    std::vector<std::uint8_t> gone(scene_.size(), 0);
    for (std::size_t i = 0; i < moves; ++i) {
      gone[rng_.below(static_cast<std::uint32_t>(scene_.size()))] = 1;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < scene_.size(); ++i) {
      if (gone[i] != 0) continue;
      if (kept != i) scene_[kept] = std::move(scene_[i]);
      ++kept;
    }
    scene_.resize(kept);
    std::erase_if(targets_, [&](const util::Epc& t) {
      return !std::binary_search(scene_.begin(), scene_.end(), t);
    });
    arrive(moves);
    for (std::size_t i = 0; i < moves / 8 && !targets_.empty(); ++i) {
      targets_.erase(targets_.begin() +
                     rng_.below(static_cast<std::uint32_t>(targets_.size())));
    }
    top_up_targets();
  }

  const std::vector<util::Epc>& scene() const { return scene_; }
  const std::vector<util::Epc>& targets() const { return targets_; }

 private:
  /// Merges `count` fresh random EPCs into the sorted scene (a collision
  /// with an existing EPC is dropped).
  void arrive(std::size_t count) {
    const auto mid = static_cast<std::ptrdiff_t>(scene_.size());
    for (std::size_t i = 0; i < count; ++i) {
      scene_.push_back(util::Epc::random(rng_));
    }
    std::sort(scene_.begin() + mid, scene_.end());
    std::inplace_merge(scene_.begin(), scene_.begin() + mid, scene_.end());
    scene_.erase(std::unique(scene_.begin(), scene_.end()), scene_.end());
  }

  void top_up_targets() {
    while (targets_.size() < std::min(n_targets_, scene_.size())) {
      const util::Epc& pick =
          scene_[rng_.below(static_cast<std::uint32_t>(scene_.size()))];
      const auto at = std::lower_bound(targets_.begin(), targets_.end(), pick);
      if (at == targets_.end() || !(*at == pick)) targets_.insert(at, pick);
    }
  }

  util::Rng rng_;
  std::size_t n_targets_;
  std::vector<util::Epc> scene_;
  std::vector<util::Epc> targets_;
};

/// Targets per churn scene: 1/64 of the tags (the paper's low-mobility
/// regime), capped so per-pointer trie paths at 1M tags fit in memory.
std::size_t churn_targets(std::size_t n) {
  return std::clamp<std::size_t>(n / 64, 8, 1024);
}

/// Full plan equality: every selection, the cost, the fallback flag and the
/// covered union.
bool same_schedule(const core::Schedule& a, const core::Schedule& b) {
  if (a.selections.size() != b.selections.size() ||
      a.estimated_cost_s != b.estimated_cost_s ||
      a.used_naive_fallback != b.used_naive_fallback ||
      !(a.covered_union == b.covered_union)) {
    return false;
  }
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    if (!(a.selections[i].bitmask == b.selections[i].bitmask) ||
        a.selections[i].covered_total != b.selections[i].covered_total ||
        a.selections[i].covered_targets != b.selections[i].covered_targets) {
      return false;
    }
  }
  return true;
}

template <typename Fn>
double seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best (minimum) seconds of `fn()` over `reps` runs.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) best = std::min(best, seconds(fn));
  return best;
}

/// Replays the n-tag churn tape: an untimed initial build, then `cycles`
/// churned cycles.  Returns the seconds spent in plan_cycle on the churned
/// cycles and appends their plans to `plans` when non-null.
double plan_churn_trace(std::size_t n, std::size_t cycles, util::TaskPool* pool,
                        std::vector<core::Schedule>* plans) {
  ChurnWorld world(n, churn_targets(n), 0xc1c1e000 + n);
  core::IncrementalPlanner planner(core::InventoryCostModel::paper_fit(), 0.15,
                                   pool);
  planner.plan_cycle(world.scene(), world.targets());
  double total = 0.0;
  for (std::size_t c = 0; c < cycles; ++c) {
    world.churn(std::max<std::size_t>(n / 512, 2));
    core::Schedule plan;
    total += seconds(
        [&] { plan = planner.plan_cycle(world.scene(), world.targets()); });
    if (plans != nullptr) plans->push_back(std::move(plan));
  }
  return total;
}

}  // namespace

int main() {
  bench::BenchReport report("planner", 0xc1c1e);
  std::printf("planner bench\n");
  std::size_t max_n = 1048576;
  if (const char* cap = std::getenv("TAGWATCH_BENCH_MAX_N")) {
    max_n = std::max<std::size_t>(std::strtoull(cap, nullptr, 10), 4096);
  }
  util::TaskPool pool(4);
  const core::InventoryCostModel cost = core::InventoryCostModel::paper_fit();

  // ------------------------------------------ lazy vs dense greedy cover
  // The first 1,024 EPCs of a 4,096-tag scene: the high-mobility regime,
  // dense enough that the greedy cover runs many rounds (what the lazy
  // evaluation is for).  Reps alternate dense/lazy on the same inputs and
  // keep each side's minimum, which rejects shared-runner noise.
  {
    const ChurnWorld world(4096, 0, 23);
    const core::BitmaskIndex index(world.scene());
    const util::IndicatorBitmap targets = index.bitmap_of(
        std::vector<util::Epc>(world.scene().begin(),
                               world.scene().begin() + 1024));
    const core::GreedyCoverScheduler lazy(cost, core::GreedyEvaluation::kLazy);
    const core::GreedyCoverScheduler dense(cost,
                                           core::GreedyEvaluation::kDense);
    core::Schedule lazy_plan, dense_plan;
    double dense_s = std::numeric_limits<double>::infinity();
    double lazy_s = dense_s;
    for (int rep = 0; rep < 3; ++rep) {
      dense_s = std::min(
          dense_s, seconds([&] { dense_plan = dense.plan(index, targets); }));
      lazy_s = std::min(
          lazy_s, seconds([&] { lazy_plan = lazy.plan(index, targets); }));
    }
    if (!same_schedule(lazy_plan, dense_plan)) {
      std::fprintf(stderr, "FAIL: lazy and dense greedy plans differ\n");
      return 1;
    }
    std::printf("  greedy cover at 4096 tags: dense %.1f ms, lazy %.1f ms "
                "-> %.1fx (%zu selections, plans equal)\n",
                dense_s * 1e3, lazy_s * 1e3, dense_s / lazy_s,
                lazy_plan.selections.size());
    report.add("planning_reference_ms_at_4096", dense_s * 1e3, "ms");
    report.add("planning_fast_ms_at_4096", lazy_s * 1e3, "ms");
    report.add("planning_speedup_at_4096", dense_s / lazy_s, "ratio");
  }

  // ------------------------------------------ cycle-rate scale sweep
  for (const std::size_t n :
       {std::size_t{4096}, std::size_t{16384}, std::size_t{65536},
        std::size_t{262144}, std::size_t{1048576}}) {
    if (n > max_n) {
      std::printf("  %zu tags: skipped (TAGWATCH_BENCH_MAX_N)\n", n);
      continue;
    }
    const std::size_t cycles =
        std::clamp<std::size_t>((std::size_t{1} << 22) / n, 4, 64);
    const int reps = n <= 16384 ? 3 : 2;

    // In-bench oracle: the same churn tape planned serially; the first
    // timed rep's 4-thread plans must match it cycle for cycle.
    std::vector<core::Schedule> oracle, fast;
    plan_churn_trace(n, cycles, nullptr, &oracle);
    double best_s = plan_churn_trace(n, cycles, &pool, &fast);
    if (!std::equal(oracle.begin(), oracle.end(), fast.begin(), fast.end(),
                    same_schedule)) {
      std::fprintf(stderr,
                   "FAIL: plan divergence at %zu tags between serial and "
                   "4-thread planning\n",
                   n);
      return 1;
    }
    for (int rep = 1; rep < reps; ++rep) {
      best_s = std::min(best_s, plan_churn_trace(n, cycles, &pool, nullptr));
    }
    const double rate = static_cast<double>(cycles) / best_s;
    std::printf("  %zu tags: %.1f planning cycles/s (plans oracle-identical)\n",
                n, rate);
    report.add("planning_cycles_per_sec_at_" + std::to_string(n), rate, "hz");
  }
  report.add("plans_identical", 1.0, "bool");

  // -------------------------------- incremental vs from-scratch planning
  // Amortized per-cycle cost of the persistent planner vs the from-scratch
  // pipeline (index build + target mapping + greedy) on one churn trace.
  // From-scratch is min-of-reps on a mid-trace cycle; incremental is the
  // total over the initial full build plus every churn cycle, divided by
  // the cycle count, so the rebuild amortizes instead of being dropped.
  {
    const std::size_t n = std::min<std::size_t>(max_n, 65536);
    constexpr int kCycles = 6;  // After the initial full-build cycle.
    ChurnWorld world(n, churn_targets(n), 37);
    std::vector<std::vector<util::Epc>> scenes{world.scene()};
    std::vector<std::vector<util::Epc>> target_sets{world.targets()};
    for (int c = 0; c < kCycles; ++c) {
      world.churn(n / 512);
      scenes.push_back(world.scene());
      target_sets.push_back(world.targets());
    }
    const core::GreedyCoverScheduler lazy(cost, core::GreedyEvaluation::kLazy);
    const auto from_scratch = [&](std::size_t c) {
      const core::BitmaskIndex index(scenes[c]);
      return lazy.plan(index, index.bitmap_of(target_sets[c]));
    };

    core::Schedule oracle_mid;
    const double scratch_s =
        best_seconds(2, [&] { oracle_mid = from_scratch(1); });
    core::IncrementalPlanner planner(cost);
    double inc_total_s = 0.0;
    core::Schedule inc_mid, inc_last;
    for (std::size_t c = 0; c < scenes.size(); ++c) {
      core::Schedule plan;
      inc_total_s += seconds(
          [&] { plan = planner.plan_cycle(scenes[c], target_sets[c]); });
      if (c == 1) inc_mid = plan;
      if (c + 1 == scenes.size()) inc_last = std::move(plan);
    }
    if (!same_schedule(inc_mid, oracle_mid) ||
        !same_schedule(inc_last, from_scratch(scenes.size() - 1))) {
      std::fprintf(stderr,
                   "FAIL: incremental plan differs from the from-scratch "
                   "oracle at %zu tags\n",
                   n);
      return 1;
    }
    const double inc_s = inc_total_s / static_cast<double>(scenes.size());
    std::printf("  incremental planning at %zu tags: %.1f ms -> %.1f ms "
                "amortized over %zu cycles -> %.1fx\n",
                n, scratch_s * 1e3, inc_s * 1e3, scenes.size(),
                scratch_s / inc_s);
    report.add("incremental_scene_tags", static_cast<double>(n), "count");
    report.add("planning_scratch_ms", scratch_s * 1e3, "ms");
    report.add("planning_incremental_amortized_ms", inc_s * 1e3, "ms");
    report.add("incremental_speedup", scratch_s / inc_s, "ratio");
  }

  // ------------------------------------- parallel candidate-gen A/B
  // Report-only: a single-core box legitimately reports ~1.0x here.
  {
    const std::size_t n = std::min<std::size_t>(max_n, 65536);
    const ChurnWorld world(n, churn_targets(n), 0x7a5c);
    const core::BitmaskIndex index(world.scene());
    const util::IndicatorBitmap targets = index.bitmap_of(world.targets());
    const double t_serial =
        best_seconds(3, [&] { index.candidates_for(targets); });
    const double t_pool =
        best_seconds(3, [&] { index.candidates_for(targets, &pool); });
    std::printf("  candidates_for at %zu tags: serial %.1f ms, "
                "4 threads %.1f ms -> %.2fx\n",
                n, t_serial * 1e3, t_pool * 1e3, t_serial / t_pool);
    report.add("planning_threads_speedup", t_serial / t_pool, "ratio");
  }

  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
