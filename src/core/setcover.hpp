// Greedy weighted set cover for bitmask selection (paper §5.2–5.3).
//
// Minimize Σ C(|S_i|) over selected bitmasks subject to covering every
// target tag (Eqn. 12).  Each greedy iteration selects the candidate with
// the highest relative gain R(S_i) = |V_i & V| / C(|V_i|) (Eqn. 13); ties
// break to the lowest candidate index, so plans are deterministic and
// byte-identical across evaluation strategies.  The result is compared
// against the naive plan (one full-EPC bitmask per target); if the naive
// plan is cheaper, it is used instead — the paper's worst-case guard.
//
// Two evaluation strategies over the same candidate table
// (BitmaskIndex::candidates_for) produce the same plan:
//
//  * kLazy (default) — lazy-greedy over a max-heap of possibly-stale
//    gains.  Because the gain |V_i & V| / C(|V_i|) is submodular in the
//    uncovered set V (the numerator only shrinks as V shrinks; the cost is
//    fixed per candidate), a stale heap entry is an upper bound, so the
//    first entry whose gain was re-evaluated in the current round is the
//    true argmax.  Each round touches a handful of candidates instead of
//    all m: O(k·(n/64 + log m)) per round for k re-evaluations.
//  * kDense — the reference full rescan: every round recomputes every
//    candidate's gain, O(m·n/64) per round.  Kept as the lazy heap's
//    differential-test oracle.
#pragma once

#include <vector>

#include "core/bitmask.hpp"
#include "core/rate_model.hpp"

namespace tagwatch::core {

/// How GreedyCoverScheduler::plan evaluates candidate gains per round.
enum class GreedyEvaluation {
  kLazy,   ///< Lazy-greedy max-heap with re-evaluate-on-pop.
  kDense,  ///< Full rescan of all candidates per round (reference).
};

/// One selected bitmask of a schedule.
struct ScheduledBitmask {
  Bitmask bitmask;
  std::size_t covered_total = 0;    ///< |S_i|: all scene tags covered.
  std::size_t covered_targets = 0;  ///< Targets newly covered at selection.
};

/// A Phase II reading plan.
struct Schedule {
  std::vector<ScheduledBitmask> selections;
  double estimated_cost_s = 0.0;  ///< Σ C(|S_i|) under the cost model.
  bool used_naive_fallback = false;
  /// Scene tags covered by the union of selections (targets + collateral).
  util::IndicatorBitmap covered_union;
};

/// Greedy set-cover planner.
class GreedyCoverScheduler {
 public:
  explicit GreedyCoverScheduler(
      InventoryCostModel cost_model,
      GreedyEvaluation evaluation = GreedyEvaluation::kLazy)
      : cost_model_(cost_model), evaluation_(evaluation) {}

  /// Plans bitmasks covering all of `targets` over `index`'s scene.
  /// `targets` must be non-empty.  `pool` shards candidate generation
  /// (see BitmaskIndex::candidates_for).  The plan is independent of the
  /// configured evaluation strategy and of the pool.
  Schedule plan(const BitmaskIndex& index, const util::IndicatorBitmap& targets,
                util::TaskPool* pool = nullptr) const;

  /// The naive plan: one full-EPC bitmask per target (§5.2's worst case).
  Schedule naive_plan(const BitmaskIndex& index,
                      const util::IndicatorBitmap& targets) const;

  const InventoryCostModel& cost_model() const noexcept { return cost_model_; }
  GreedyEvaluation evaluation() const noexcept { return evaluation_; }

 private:
  /// The greedy selection loop over a prepared candidate table.
  Schedule greedy_lazy(const BitmaskIndex& index,
                       const std::vector<BitmaskCandidate>& candidates,
                       const util::IndicatorBitmap& targets) const;
  Schedule greedy_dense(const BitmaskIndex& index,
                        const std::vector<BitmaskCandidate>& candidates,
                        const util::IndicatorBitmap& targets) const;
  /// Appends `chosen` to `plan` and updates cost/union/remaining.
  void select(const BitmaskCandidate& chosen, Schedule& plan,
              util::IndicatorBitmap& remaining) const;

  InventoryCostModel cost_model_;
  GreedyEvaluation evaluation_;
};

}  // namespace tagwatch::core
