// Incremental cross-cycle Phase-II planning (ROADMAP "million-tag scenes").
//
// The from-scratch pipeline rebuilds the BitmaskIndex candidate table and
// the lazy-greedy cover every cycle, even though the scene and the mover
// set change by a small delta per cycle.  This planner keeps the candidate
// structure alive across cycles and applies per-cycle deltas instead:
//
//   * Per pointer p, the deduplicated candidate rows anchored at targets
//     are exactly the edges of the binary radix trie over the scene's EPC
//     suffixes [p, L), restricted to root→target paths: coverage is
//     constant along an edge and changes exactly at branch nodes, so each
//     edge is one row (mask length d = parent depth + 1).  The planner
//     maintains that skeleton — branch nodes on target paths, with
//     non-target subtrees collapsed to counted "blobs" — under four delta
//     operations: tag arrived (splits at most one edge per trie), tag
//     departed (merges at most one node per trie), tag became a target
//     (expands its path out of a blob with a sparsifying column sweep),
//     tag stopped being a target (collapses its private path back into a
//     blob).  Rows store counts and covered-target lists, not scene-wide
//     coverage bitmaps, so memory stays proportional to the target count
//     — the representation that makes 131k–1M-tag scenes plannable at
//     all (a materialized candidate table at 1M tags would need >100 GB).
//
//   * Plans are provably plan-equivalent to the from-scratch oracle
//     (GreedyCoverScheduler over BitmaskIndex::candidates_for).  The
//     oracle enumerates runs in (target rank, pointer, length) order with
//     global first-coverage-seen dedupe; equal-coverage rows here instead
//     coexist and the greedy breaks gain ties by the key (min-anchor EPC,
//     pointer, d) — the exact first-emission order — so the tied winner,
//     its mask bits, and every accumulated double match the oracle bit
//     for bit, and duplicates are dead weight the greedy can never select
//     (their remaining gain is zero once the winner is taken).
//     Differential churn tests enforce this every cycle.
//
//   * Per-cycle work follows the delta, not the structure.  A cycle with
//     no arrival, departure or target flip returns the previous plan
//     without running the greedy: the greedy is a pure function of the
//     structure and the fixed cost model, and a Schedule holds nothing
//     cycle-specific.  A cycle with a delta seeds the greedy only with
//     rows that can win: an edge whose child node has a blob on one side
//     is skipped, because the edge on the other side covers the same
//     targets (same min-anchor tie key) with `blob` fewer tags, so its
//     gain is strictly higher in every round.  The skip is taken only
//     where the two costs are far enough apart that the rounded gains
//     differ too; fit()'s slope clamp (τ̄ = 1e-9 s at τ0 = 19 ms) clears
//     that margin by seven orders of magnitude.  Of the rows that cover
//     a single target t, only t's HeapLess-best one is seeded: each gains
//     1/C(count) while t is uncovered and 0 after, so their (gain, key)
//     order is the same in every round and no other one can win.
//
//   * A target path stops expanding once its scratch set holds only the
//     target: the target always matches itself, so such a path never
//     branches again and its current edge is the terminal one.  Freed
//     and rebuilt rows keep their covered-target buffers (free list and
//     Arena::spare_targets), so a rebuild reallocates none it can reuse.
//
//   * Past a configurable churn threshold (fraction of the scene changed
//     in one cycle), incremental maintenance stops paying off and the
//     planner rebuilds its structure from scratch — the same fallback
//     discipline as the DFSA frame-size estimators.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/rate_model.hpp"
#include "core/setcover.hpp"
#include "util/epc.hpp"

namespace tagwatch::util {
class TaskPool;
}

namespace tagwatch::core {

/// Counters describing what the planner did, cumulatively and in the most
/// recent plan_cycle() call.
struct IncrementalPlannerStats {
  std::uint64_t cycles = 0;              ///< plan_cycle() calls.
  std::uint64_t incremental_cycles = 0;  ///< Cycles served by delta updates.
  std::uint64_t full_rebuilds = 0;       ///< Cycles that rebuilt from scratch.
  std::size_t live_rows = 0;             ///< Candidate rows currently alive.
  std::size_t last_arrivals = 0;         ///< Scene adds in the last cycle.
  std::size_t last_departures = 0;       ///< Scene removes in the last cycle.
  std::size_t last_target_adds = 0;      ///< New targets among staying tags.
  std::size_t last_target_removes = 0;   ///< Dropped targets (staying tags).
  double last_churn = 0.0;               ///< Delta fraction of the last cycle.
  bool last_was_rebuild = false;         ///< Last cycle fell back to rebuild.
};

/// Persistent cross-cycle Phase-II planner.
///
/// plan_cycle() takes the cycle's scene and target EPCs (sorted,
/// deduplicated — CycleReport::scene / targets order), diffs them against
/// the previous cycle's state, applies the deltas (or rebuilds past the
/// churn threshold), and returns a Schedule byte-identical to
/// GreedyCoverScheduler::plan() over a fresh BitmaskIndex of the same
/// scene — including the naive worst-case guard and covered_union in the
/// scene's EPC-sorted ordering.
class IncrementalPlanner {
 public:
  /// `churn_threshold`: rebuild from scratch when (arrivals + departures +
  /// target flips) / scene size exceeds it.  0 rebuilds every cycle with
  /// any delta; ≥ 1 effectively never rebuilds.  `pool` (not owned, may
  /// be null) shards full rebuilds across its executors, one contiguous
  /// pointer range of tries per task built into a task-local arena and
  /// spliced back in order — the resulting plans are byte-identical to a
  /// pool-less planner's at any thread count.
  explicit IncrementalPlanner(InventoryCostModel cost_model,
                              double churn_threshold = 0.15,
                              util::TaskPool* pool = nullptr);

  IncrementalPlanner(const IncrementalPlanner&) = delete;
  IncrementalPlanner& operator=(const IncrementalPlanner&) = delete;

  /// Plans one cycle.  `scene` and `targets` must be EPC-sorted,
  /// deduplicated and non-empty, all scene EPCs the same length (throws
  /// std::invalid_argument otherwise, mirroring BitmaskIndex /
  /// GreedyCoverScheduler).  Target EPCs not present in the scene are
  /// ignored, exactly like BitmaskIndex::bitmap_of; if no target is in
  /// the scene, throws like GreedyCoverScheduler::plan.  A cycle that
  /// neither rebuilds nor sees any arrival, departure or target flip
  /// returns a copy of the previous plan without re-running the greedy;
  /// it still validates its inputs and counts as an incremental cycle
  /// with last_churn 0.
  Schedule plan_cycle(const std::vector<util::Epc>& scene,
                      const std::vector<util::Epc>& targets);

  const IncrementalPlannerStats& stats() const noexcept { return stats_; }
  const InventoryCostModel& cost_model() const noexcept { return cost_model_; }
  double churn_threshold() const noexcept { return churn_threshold_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One side of a branch node: either an edge (targets live below) or a
  /// counted blob of non-target tags with no materialized structure.
  struct Side {
    std::uint32_t edge = kNone;
    std::uint32_t blob = 0;  ///< Tag count below when edge == kNone.
  };

  /// A branch node on a target path: the scene genuinely diverges at EPC
  /// bit (p + depth) here.
  struct Node {
    std::uint16_t depth = 0;
    std::uint8_t parent_side = 0;
    std::uint32_t parent_edge = kNone;
    Side side[2];
  };

  /// One candidate row: a maximal run of mask lengths [d, bot] with
  /// constant coverage in trie p.  `bot` is implicit (the child node's
  /// depth, or L - p for a terminal).  Coverage is represented by its
  /// cardinality plus the covered-target slot list; full coverage is only
  /// re-materialized for the handful of selected rows.
  struct Edge {
    std::uint16_t p = 0;
    std::uint16_t d = 0;  ///< Mask length: parent node depth + 1 (root: 1).
    std::uint8_t parent_side = 0;
    std::uint32_t parent_node = kNone;  ///< kNone: this is the trie root edge.
    std::uint32_t child_node = kNone;   ///< kNone: terminal (suffix class).
    std::uint32_t count = 0;            ///< |coverage| over the scene.
    std::uint32_t min_slot = kNone;     ///< Min-EPC covered target (tie key).
    std::vector<std::uint32_t> targets;  ///< Covered target slots, unsorted.
    bool alive = false;
  };

  /// Per-pointer skeleton root: exactly one of root_edge / root_node is
  /// set while targets exist; with none, the whole scene is one blob.
  /// Tags that diverge from a root edge at bit p itself are untracked
  /// (implicit count n_present - root subtree) until a target appears on
  /// their side.
  struct Trie {
    std::uint32_t root_edge = kNone;
    std::uint32_t root_node = kNone;
  };

  /// Scratch coverage for target-path expansion and selected-row
  /// materialization: dense words plus the shrinking nonzero-word list.
  /// Words outside `active` are always zero, so the array stays exact.
  struct Scratch {
    std::vector<std::uint64_t> words;
    std::vector<std::uint32_t> active;
    std::size_t count = 0;
    /// Column pointers of the current materialize() pass (scratch-local so
    /// parallel rebuild tasks never share it).
    std::vector<const std::uint64_t*> col_ptrs;
  };

  /// The edge/node pools of one trie forest.  The member arena_ holds the
  /// live structure; parallel rebuild tasks each build their pointer range
  /// into a task-local Arena (free lists stay empty — the add path never
  /// frees) which splice_arena() appends with index offsets.  Plans are
  /// invariant to the pool layout: the greedy heap orders by (gain, key)
  /// with a key unique per live edge, so pop order never depends on edge
  /// indices.
  struct Arena {
    std::vector<Edge> edges;
    std::vector<Node> nodes;
    std::vector<std::uint32_t> free_edges;
    std::vector<std::uint32_t> free_nodes;
    /// Empty targets buffers a rebuild recycles: alloc_edge() hands them
    /// to new rows, and the rebuild releases the ones left over.
    std::vector<std::vector<std::uint32_t>> spare_targets;
    std::size_t live_edges = 0;
  };

  // ------------------------------------------------------- slot registry
  bool epc_bit(std::uint32_t slot, std::size_t bit) const noexcept {
    return ((packed_[slot * packed_words_ + bit / 64] >> (63 - bit % 64)) &
            1u) != 0;
  }
  /// Per-slot membership column for EPC bit `bit` == `value`; vacant
  /// slots are zero in both columns.  Slot s lives at word s/64, bit s%64.
  const std::uint64_t* column(std::size_t bit, bool value) const noexcept {
    const auto& cols = value ? cols_one_ : cols_zero_;
    return cols.data() + bit * cap_words_;
  }
  std::uint32_t alloc_slot(const util::Epc& epc);
  void release_slot(std::uint32_t slot);
  /// Grows slot capacity (re-laying out the per-bit columns) so at least
  /// `min_slots` slots exist.  Capacity is always a multiple of 64.
  void ensure_capacity(std::size_t min_slots);

  // --------------------------------------------------------- trie deltas
  void tag_arrived(std::uint32_t slot);
  void tag_departed(std::uint32_t slot);
  void target_added(std::uint32_t slot);
  void target_removed(std::uint32_t slot);
  void arrive_in_trie(std::size_t p, std::uint32_t slot);
  void depart_in_trie(std::size_t p, std::uint32_t slot);
  /// Adds target `slot` to trie `p`, building into `a` (arena_ for delta
  /// updates; a task-local arena during parallel rebuild — tries_[p]'s
  /// roots then hold a-local indices until splice_arena() remaps them).
  void add_target_in_trie(Arena& a, Scratch& s, std::size_t p,
                          std::uint32_t slot);
  void remove_target_in_trie(std::size_t p, std::uint32_t slot);
  /// Splits edge `e` at divergence depth `j` (a new branch node), placing
  /// `slot` as a size-1 blob on the far side.  The top part keeps the row
  /// identity; `e`'s count is NOT touched (the caller's descent does it).
  void split_edge(std::size_t p, std::uint32_t e, std::size_t j,
                  std::uint32_t slot);
  /// Expands target `slot`'s path below `(node, side)` out of the blob
  /// there (or below the trie root when node == kNone), creating the edge
  /// chain of branch points down to its terminal suffix class.
  void expand_target_path(Arena& a, Scratch& s, std::size_t p,
                          std::uint32_t node, int side, std::uint32_t slot);
  /// Frees the whole structure strictly below edge `e` (collapse to blob).
  void free_below(std::uint32_t e);
  std::size_t edge_bot(const Edge& e) const noexcept;
  void refresh_min_slot(Edge& e) const;
  /// Appends `a`'s pools to arena_, remapping every cross-pool index (and
  /// the trie roots of [p_begin, p_end)) by the splice offsets.
  /// Precondition: a's free lists are empty (rebuild never frees).
  void splice_arena(Arena&& a, std::size_t p_begin, std::size_t p_end);

  std::uint32_t alloc_edge(Arena& a);
  std::uint32_t alloc_node(Arena& a);
  void free_edge(std::uint32_t e);
  void free_node(std::uint32_t n);

  // ------------------------------------------------------------ coverage
  /// ANDs column `col` into the scratch coverage over its active words,
  /// dropping (and zeroing) words that die and maintaining the count.
  void scratch_and_column(Scratch& s, const std::uint64_t* col) const;
  /// Materializes the coverage of mask bits [p, p+d) of `anchor`'s EPC
  /// with one fused early-zero pass over the present set.
  void materialize(Scratch& s, std::size_t p, std::size_t d,
                   std::uint32_t anchor) const;

  // ------------------------------------------------------------ planning
  Schedule run_greedy();
  Schedule naive_schedule() const;
  double cost_of(std::size_t n);
  /// True when row `e` can never be selected: the edge beside a blob
  /// under it covers the same targets with a strictly higher gain.
  bool dominated(const Edge& e);
  void rebuild(const std::vector<util::Epc>& scene,
               const std::vector<std::uint8_t>& is_target);

  InventoryCostModel cost_model_;
  double churn_threshold_;
  util::TaskPool* pool_;  ///< Not owned; null = serial rebuilds.

  // Slot registry: EPCs packed row-major for fast bit access, per-bit
  // membership columns (vacant slots zero in both), and the EPC-sorted
  // slot order the Schedule's covered_union is emitted in.
  std::size_t epc_bits_ = 0;
  std::size_t packed_words_ = 0;  ///< Words per packed EPC row.
  std::size_t capacity_ = 0;      ///< Slot capacity, multiple of 64.
  std::size_t cap_words_ = 0;     ///< capacity_ / 64.
  std::size_t n_present_ = 0;
  std::vector<util::Epc> epcs_;
  std::vector<std::uint64_t> packed_;
  std::vector<std::uint64_t> cols_one_;   ///< [bit][slot-word], flattened.
  std::vector<std::uint64_t> cols_zero_;  ///< Complement columns.
  std::vector<std::uint64_t> present_;    ///< Occupied-slot bitmap words.
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> sorted_slots_;  ///< Present slots, EPC order.
  std::vector<std::uint8_t> is_target_;
  std::vector<std::uint32_t> target_slots_;  ///< Unordered target set.

  std::vector<Trie> tries_;
  Arena arena_;

  // Reused per-cycle scratch (member so plan_cycle stays allocation-lean).
  Scratch scratch_;
  std::vector<std::uint32_t> rank_;       ///< Slot → EPC-sorted position.
  std::vector<std::uint8_t> remaining_;   ///< Per-slot uncovered flag.
  /// Per-slot seed index of the target's best single-target row.
  std::vector<std::uint32_t> best_single_;
  std::vector<double> cost_memo_;
  /// The plan last returned, reused verbatim by delta-free cycles; empty
  /// before the first plan and while a greedy run has not completed.
  std::optional<Schedule> last_plan_;
  IncrementalPlannerStats stats_;
  bool built_ = false;
};

}  // namespace tagwatch::core
