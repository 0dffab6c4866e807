#include "core/setcover.hpp"

#include <bit>
#include <queue>
#include <stdexcept>

namespace tagwatch::core {

namespace {

/// One lazy-greedy heap entry: a candidate with the gain it had when last
/// evaluated and the round that evaluation happened in.
struct HeapEntry {
  double gain = 0.0;
  std::size_t index = 0;
  std::size_t round = 0;
};

/// Max-heap order: highest gain first; equal gains pop the lowest
/// candidate index first — the pinned greedy tie-break.
struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.index > b.index;
  }
};

}  // namespace

Schedule GreedyCoverScheduler::naive_plan(
    const BitmaskIndex& index, const util::IndicatorBitmap& targets) const {
  Schedule plan;
  plan.used_naive_fallback = true;
  plan.covered_union = util::IndicatorBitmap(index.scene_size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!targets.test(i)) continue;
    const util::Epc& epc = index.scene()[i];
    ScheduledBitmask sel;
    sel.bitmask.pointer = 0;
    sel.bitmask.mask = epc.bits();
    sel.covered_total = 1;
    sel.covered_targets = 1;
    plan.selections.push_back(std::move(sel));
    plan.covered_union.set(i);
    plan.estimated_cost_s += cost_model_.cost_seconds(1);
  }
  return plan;
}

void GreedyCoverScheduler::select(const BitmaskCandidate& chosen,
                                  Schedule& plan,
                                  util::IndicatorBitmap& remaining) const {
  ScheduledBitmask sel;
  sel.bitmask = chosen.bitmask;
  sel.covered_total = chosen.coverage.count();
  sel.covered_targets = chosen.coverage.and_count(remaining);
  plan.selections.push_back(std::move(sel));
  plan.estimated_cost_s += cost_model_.cost_seconds(chosen.coverage.count());
  plan.covered_union.merge(chosen.coverage);
  remaining.subtract(chosen.coverage);
}

Schedule GreedyCoverScheduler::greedy_dense(
    const BitmaskIndex& index, const std::vector<BitmaskCandidate>& candidates,
    const util::IndicatorBitmap& targets) const {
  Schedule plan;
  plan.covered_union = util::IndicatorBitmap(index.scene_size());
  util::IndicatorBitmap remaining = targets;

  while (remaining.any()) {
    double best_gain = -1.0;
    std::size_t best = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t covered_targets =
          candidates[i].coverage.and_count(remaining);
      if (covered_targets == 0) continue;
      const double cost =
          cost_model_.cost_seconds(candidates[i].coverage.count());
      const double gain = static_cast<double>(covered_targets) / cost;
      // Strict '>' pins the tie-break: equal gains keep the lowest index.
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == candidates.size()) {
      // Unreachable in practice: every target's own full EPC is a candidate.
      throw std::logic_error("GreedyCoverScheduler: uncoverable target");
    }
    select(candidates[best], plan, remaining);
  }
  return plan;
}

Schedule GreedyCoverScheduler::greedy_lazy(
    const BitmaskIndex& index, const std::vector<BitmaskCandidate>& candidates,
    const util::IndicatorBitmap& targets) const {
  Schedule plan;
  plan.covered_union = util::IndicatorBitmap(index.scene_size());
  util::IndicatorBitmap remaining = targets;

  // Candidates share few distinct coverage sizes, so memoize the cost
  // model per size: cost_seconds() is deterministic, so the memo returns
  // bit-identical doubles to direct evaluation.
  std::vector<double> cost_memo(index.scene_size() + 1, -1.0);
  const auto cost_of = [&](std::size_t n) {
    double& c = cost_memo[n];
    if (c < 0.0) c = cost_model_.cost_seconds(n);
    return c;
  };

  // Gains only depend on |coverage ∩ remaining| with remaining ⊆ targets,
  // so a re-evaluation only has to look at the scene words where targets
  // live — everywhere else `remaining` is zero.  The target set is tiny
  // next to the scene, so this turns each heap re-evaluation into a
  // handful of word ANDs instead of a full scene-bitmap scan.
  std::vector<std::size_t> target_word_idx;
  for (std::size_t i = 0; i < targets.word_count(); ++i) {
    if (targets.word(i) != 0) target_word_idx.push_back(i);
  }
  const auto covered_in_remaining = [&](std::size_t c) noexcept {
    const std::uint64_t* const cov = candidates[c].coverage.word_data();
    const std::uint64_t* const rem = remaining.word_data();
    std::size_t covered = 0;
    for (const std::size_t i : target_word_idx) {
      covered += static_cast<std::size_t>(std::popcount(cov[i] & rem[i]));
    }
    return covered;
  };

  // Seed the heap with gains against the full target set; those are fresh
  // for round 1.  The numerator |V_i ∩ targets| was precomputed during
  // candidate enumeration (BitmaskCandidate::targets_covered), so seeding
  // is O(1) per candidate plus one bulk heapify.  Zero-gain candidates can
  // never gain later (submodular), so they are dropped here and on every
  // re-evaluation.
  std::vector<HeapEntry> seed;
  seed.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t covered = candidates[i].targets_covered;
    if (covered == 0) continue;
    const double cost = cost_of(candidates[i].coverage.count());
    seed.push_back({static_cast<double>(covered) / cost, i, 1});
  }
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap(
      HeapLess{}, std::move(seed));

  std::size_t round = 1;
  while (remaining.any()) {
    std::size_t chosen = candidates.size();
    while (chosen == candidates.size()) {
      if (heap.empty()) {
        throw std::logic_error("GreedyCoverScheduler: uncoverable target");
      }
      const HeapEntry top = heap.top();
      heap.pop();
      if (top.round == round) {
        // Every other entry's (possibly stale) gain is an upper bound that
        // is no higher than this fresh one: it is the true argmax, and the
        // heap order already broke gain ties toward the lowest index.
        chosen = top.index;
        break;
      }
      const std::size_t covered = covered_in_remaining(top.index);
      if (covered == 0) continue;
      const double cost = cost_of(candidates[top.index].coverage.count());
      heap.push({static_cast<double>(covered) / cost, top.index, round});
    }
    select(candidates[chosen], plan, remaining);
    ++round;
  }
  return plan;
}

Schedule GreedyCoverScheduler::plan(const BitmaskIndex& index,
                                    const util::IndicatorBitmap& targets,
                                    util::TaskPool* pool) const {
  if (targets.none()) {
    throw std::invalid_argument("GreedyCoverScheduler::plan: no targets");
  }
  // Both evaluations run over the same candidate table and produce the
  // same plan.  The pool only shards candidate generation, which is
  // identical at any thread count, so the plan is pool-independent too.
  const std::vector<BitmaskCandidate> candidates =
      index.candidates_for(targets, pool);
  Schedule plan = evaluation_ == GreedyEvaluation::kDense
                      ? greedy_dense(index, candidates, targets)
                      : greedy_lazy(index, candidates, targets);

  // Worst-case guard: if the "optimal" selection costs more than reading
  // each target individually, take the naive plan (§5.2).
  Schedule naive = naive_plan(index, targets);
  if (naive.estimated_cost_s < plan.estimated_cost_s) {
    return naive;
  }
  return plan;
}

}  // namespace tagwatch::core
