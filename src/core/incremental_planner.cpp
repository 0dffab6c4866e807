#include "core/incremental_planner.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <queue>
#include <stdexcept>
#include <utility>

#include "util/simd.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {

namespace {

/// One lazy-greedy heap entry over the persistent edge table: the row's
/// gain when last evaluated, the round that evaluation happened in, and
/// the row's emission key.  The key packs (min-anchor rank, pointer, d) —
/// the order candidates_for() first emits each coverage — so equal-gain
/// pops break ties exactly like the oracle's candidate-index tie-break.
struct HeapEntry {
  double gain = 0.0;
  std::uint64_t key = 0;
  std::uint32_t edge = 0;
  std::uint32_t round = 0;
};

/// Max-heap order: highest gain first; equal gains pop the lowest
/// emission key first — the pinned greedy tie-break.
struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.key > b.key;
  }
};

}  // namespace

IncrementalPlanner::IncrementalPlanner(InventoryCostModel cost_model,
                                       double churn_threshold,
                                       util::TaskPool* pool)
    : cost_model_(cost_model), churn_threshold_(churn_threshold), pool_(pool) {
  if (churn_threshold < 0.0) {
    throw std::invalid_argument(
        "IncrementalPlanner: churn_threshold must be >= 0");
  }
}

// --------------------------------------------------------- slot registry

void IncrementalPlanner::ensure_capacity(std::size_t min_slots) {
  if (capacity_ >= min_slots) return;
  std::size_t new_cap = capacity_ == 0 ? 64 : capacity_ * 2;
  while (new_cap < min_slots) new_cap *= 2;
  const std::size_t new_words = new_cap / 64;

  epcs_.resize(new_cap, util::Epc(epc_bits_));
  packed_.resize(new_cap * packed_words_, 0);
  is_target_.resize(new_cap, 0);

  std::vector<std::uint64_t> one(epc_bits_ * new_words, 0);
  std::vector<std::uint64_t> zero(epc_bits_ * new_words, 0);
  std::vector<std::uint64_t> present(new_words, 0);
  for (std::size_t b = 0; b < epc_bits_; ++b) {
    std::copy_n(cols_one_.data() + b * cap_words_, cap_words_,
                one.data() + b * new_words);
    std::copy_n(cols_zero_.data() + b * cap_words_, cap_words_,
                zero.data() + b * new_words);
  }
  std::copy_n(present_.data(), cap_words_, present.data());
  cols_one_ = std::move(one);
  cols_zero_ = std::move(zero);
  present_ = std::move(present);

  // Hand out the new slots lowest-index-first for determinism.
  for (std::size_t s = new_cap; s > capacity_; --s) {
    free_slots_.push_back(static_cast<std::uint32_t>(s - 1));
  }
  capacity_ = new_cap;
  cap_words_ = new_words;
}

std::uint32_t IncrementalPlanner::alloc_slot(const util::Epc& epc) {
  ensure_capacity(n_present_ + 1);
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  epcs_[slot] = epc;
  std::uint64_t* row = packed_.data() + slot * packed_words_;
  std::fill_n(row, packed_words_, 0);
  const std::uint64_t slot_mask = std::uint64_t{1} << (slot % 64);
  const std::size_t slot_word = slot / 64;
  for (std::size_t b = 0; b < epc_bits_; ++b) {
    const bool bit = epc.bits().bit(b);
    if (bit) row[b / 64] |= std::uint64_t{1} << (63 - b % 64);
    (bit ? cols_one_ : cols_zero_)[b * cap_words_ + slot_word] |= slot_mask;
  }
  present_[slot_word] |= slot_mask;
  ++n_present_;
  return slot;
}

void IncrementalPlanner::release_slot(std::uint32_t slot) {
  const std::uint64_t clear_mask = ~(std::uint64_t{1} << (slot % 64));
  const std::size_t slot_word = slot / 64;
  for (std::size_t b = 0; b < epc_bits_; ++b) {
    cols_one_[b * cap_words_ + slot_word] &= clear_mask;
    cols_zero_[b * cap_words_ + slot_word] &= clear_mask;
  }
  present_[slot_word] &= clear_mask;
  is_target_[slot] = 0;
  free_slots_.push_back(slot);
  --n_present_;
}

// --------------------------------------------------------- edge registry

std::uint32_t IncrementalPlanner::alloc_edge(Arena& a) {
  std::uint32_t e;
  if (!a.free_edges.empty()) {
    e = a.free_edges.back();
    a.free_edges.pop_back();
    // free_edge() emptied the targets buffer; keep its capacity.
    std::vector<std::uint32_t> targets = std::move(a.edges[e].targets);
    a.edges[e] = Edge{};
    a.edges[e].targets = std::move(targets);
  } else {
    e = static_cast<std::uint32_t>(a.edges.size());
    a.edges.emplace_back();
    if (!a.spare_targets.empty()) {
      a.edges[e].targets = std::move(a.spare_targets.back());
      a.spare_targets.pop_back();
    }
  }
  a.edges[e].alive = true;
  ++a.live_edges;
  return e;
}

std::uint32_t IncrementalPlanner::alloc_node(Arena& a) {
  if (!a.free_nodes.empty()) {
    const std::uint32_t n = a.free_nodes.back();
    a.free_nodes.pop_back();
    a.nodes[n] = Node{};
    return n;
  }
  a.nodes.emplace_back();
  return static_cast<std::uint32_t>(a.nodes.size() - 1);
}

void IncrementalPlanner::free_edge(std::uint32_t e) {
  arena_.edges[e].alive = false;
  arena_.edges[e].targets.clear();
  arena_.free_edges.push_back(e);
  --arena_.live_edges;
}

void IncrementalPlanner::free_node(std::uint32_t n) {
  arena_.free_nodes.push_back(n);
}

std::size_t IncrementalPlanner::edge_bot(const Edge& e) const noexcept {
  return e.child_node != kNone ? arena_.nodes[e.child_node].depth
                               : epc_bits_ - e.p;
}

void IncrementalPlanner::refresh_min_slot(Edge& e) const {
  std::uint32_t best = e.targets.front();
  for (std::size_t i = 1; i < e.targets.size(); ++i) {
    if (epcs_[e.targets[i]] < epcs_[best]) best = e.targets[i];
  }
  e.min_slot = best;
}

void IncrementalPlanner::free_below(std::uint32_t e) {
  const std::uint32_t child = arena_.edges[e].child_node;
  if (child == kNone) return;
  for (const int side : {0, 1}) {
    const std::uint32_t se = arena_.nodes[child].side[side].edge;
    if (se != kNone) {
      free_below(se);
      free_edge(se);
    }
  }
  free_node(child);
  arena_.edges[e].child_node = kNone;
}

// ------------------------------------------------------------- coverage

void IncrementalPlanner::materialize(Scratch& s, std::size_t p,
                                     std::size_t d,
                                     std::uint32_t anchor) const {
  s.col_ptrs.clear();
  for (std::size_t k = 0; k < d; ++k) {
    s.col_ptrs.push_back(column(p + k, epc_bit(anchor, p + k)));
  }
  s.words.resize(cap_words_);
  s.count = util::simd::fused_and_columns(s.words.data(), present_.data(),
                                          s.col_ptrs.data(), d, cap_words_);
  s.active.resize(cap_words_);
  s.active.resize(util::simd::nonzero_indices(s.words.data(), cap_words_,
                                              s.active.data()));
}

void IncrementalPlanner::scratch_and_column(Scratch& s,
                                            const std::uint64_t* col) const {
  std::size_t out = 0;
  std::size_t count = 0;
  for (const std::uint32_t w : s.active) {
    const std::uint64_t v = s.words[w] & col[w];
    s.words[w] = v;
    if (v != 0) {
      s.active[out++] = w;
      count += static_cast<std::size_t>(std::popcount(v));
    }
  }
  s.active.resize(out);
  s.count = count;
}

// ----------------------------------------------------------- trie deltas

void IncrementalPlanner::split_edge(std::size_t p, std::uint32_t e,
                                    std::size_t j, std::uint32_t slot) {
  const std::uint32_t anchor = arena_.edges[e].min_slot;
  const bool anchor_bit = epc_bit(anchor, p + j);
  (void)slot;
  assert(epc_bit(slot, p + j) != anchor_bit);

  const std::uint32_t m = alloc_node(arena_);
  const std::uint32_t bottom = alloc_edge(arena_);
  Edge& top = arena_.edges[e];
  Edge& bot = arena_.edges[bottom];
  bot.p = top.p;
  bot.d = static_cast<std::uint16_t>(j + 1);
  bot.parent_node = m;
  bot.parent_side = anchor_bit ? 1 : 0;
  bot.child_node = top.child_node;
  bot.count = top.count;
  bot.min_slot = top.min_slot;
  bot.targets = top.targets;  // Same targets below both halves.
  if (bot.child_node != kNone) arena_.nodes[bot.child_node].parent_edge = bottom;

  Node& node = arena_.nodes[m];
  node.depth = static_cast<std::uint16_t>(j);
  node.parent_edge = e;
  node.parent_side = top.parent_side;
  node.side[anchor_bit ? 1 : 0] = Side{bottom, 0};
  node.side[anchor_bit ? 0 : 1] = Side{kNone, 1};  // The arrival alone.
  top.child_node = m;
}

void IncrementalPlanner::arrive_in_trie(std::size_t p, std::uint32_t slot) {
  Trie& trie = tries_[p];
  std::uint32_t e;
  if (trie.root_edge != kNone) {
    const std::uint32_t anchor = arena_.edges[trie.root_edge].min_slot;
    // A divergence at bit p itself lands in the untracked region.
    if (epc_bit(slot, p) != epc_bit(anchor, p)) return;
    e = trie.root_edge;
  } else if (trie.root_node != kNone) {
    const int b = epc_bit(slot, p) ? 1 : 0;
    e = arena_.nodes[trie.root_node].side[b].edge;  // Root sides: always edges.
  } else {
    return;  // No targets in this trie: nothing is tracked.
  }

  for (;;) {
    const std::size_t bot = edge_bot(arena_.edges[e]);
    const std::uint32_t anchor = arena_.edges[e].min_slot;
    // Scan the span below the top for the arrival's divergence point.
    std::size_t j = arena_.edges[e].d;
    while (j < bot && epc_bit(slot, p + j) == epc_bit(anchor, p + j)) ++j;
    if (j < bot) {
      split_edge(p, e, j, slot);
      ++arena_.edges[e].count;  // Only the top half gains the arrival.
      return;
    }
    ++arena_.edges[e].count;
    const std::uint32_t child = arena_.edges[e].child_node;
    if (child == kNone) return;  // Joined the terminal suffix class.
    const int b = epc_bit(slot, p + arena_.nodes[child].depth) ? 1 : 0;
    Side& side = arena_.nodes[child].side[b];
    if (side.edge == kNone) {
      ++side.blob;
      return;
    }
    e = side.edge;
  }
}

void IncrementalPlanner::depart_in_trie(std::size_t p, std::uint32_t slot) {
  Trie& trie = tries_[p];
  std::uint32_t e;
  if (trie.root_edge != kNone) {
    const std::uint32_t anchor = arena_.edges[trie.root_edge].min_slot;
    if (epc_bit(slot, p) != epc_bit(anchor, p)) return;  // Untracked.
    e = trie.root_edge;
  } else if (trie.root_node != kNone) {
    const int b = epc_bit(slot, p) ? 1 : 0;
    e = arena_.nodes[trie.root_node].side[b].edge;
  } else {
    return;
  }

  for (;;) {
    --arena_.edges[e].count;
    const std::uint32_t child = arena_.edges[e].child_node;
    if (child == kNone) return;  // Left the terminal suffix class.
    const int b = epc_bit(slot, p + arena_.nodes[child].depth) ? 1 : 0;
    Side& side = arena_.nodes[child].side[b];
    if (side.edge != kNone) {
      e = side.edge;
      continue;
    }
    if (--side.blob > 0) return;
    // The blob emptied: the branch is gone.  Merge the parent edge with
    // the surviving side's edge; the parent keeps the row identity and
    // its count already matches (both now cover the same subtree).
    const std::uint32_t other = arena_.nodes[child].side[1 - b].edge;
    assert(other != kNone);  // That side holds the targets below.
    Edge& top = arena_.edges[e];
    top.child_node = arena_.edges[other].child_node;
    if (top.child_node != kNone) arena_.nodes[top.child_node].parent_edge = e;
    assert(top.count == arena_.edges[other].count);
    free_edge(other);
    free_node(child);
    return;
  }
}

void IncrementalPlanner::expand_target_path(Arena& a, Scratch& s,
                                            std::size_t p, std::uint32_t node,
                                            int side, std::uint32_t slot) {
  const std::size_t lp = epc_bits_ - p;
  const std::size_t start_d =
      node == kNone ? 1 : static_cast<std::size_t>(a.nodes[node].depth) + 1;
  materialize(s, p, start_d, slot);
  assert(node == kNone || s.count == a.nodes[node].side[side].blob);

  std::uint32_t cur = alloc_edge(a);
  {
    Edge& e = a.edges[cur];
    e.p = static_cast<std::uint16_t>(p);
    e.d = static_cast<std::uint16_t>(start_d);
    e.parent_node = node;
    e.parent_side = static_cast<std::uint8_t>(side);
    e.count = static_cast<std::uint32_t>(s.count);
    e.min_slot = slot;
    e.targets.push_back(slot);
  }
  if (node == kNone) {
    tries_[p].root_edge = cur;
  } else {
    a.nodes[node].side[side] = Side{cur, 0};
  }

  // The target always matches itself, so once the scratch set holds only
  // the target the path can never branch again: `cur` is its terminal.
  for (std::size_t k = start_d; k < lp && s.count > 1; ++k) {
    const std::size_t before = s.count;
    const bool bit = epc_bit(slot, p + k);
    scratch_and_column(s, column(p + k, bit));
    if (s.count == before) continue;
    // The scene diverges at bit p+k: branch here, the far side a blob.
    const std::uint32_t m = alloc_node(a);
    const std::uint32_t next = alloc_edge(a);
    Node& branch = a.nodes[m];
    branch.depth = static_cast<std::uint16_t>(k);
    branch.parent_edge = cur;
    branch.parent_side = a.edges[cur].parent_side;
    branch.side[bit ? 1 : 0] = Side{next, 0};
    branch.side[bit ? 0 : 1] =
        Side{kNone, static_cast<std::uint32_t>(before - s.count)};
    a.edges[cur].child_node = m;
    Edge& e = a.edges[next];
    e.p = static_cast<std::uint16_t>(p);
    e.d = static_cast<std::uint16_t>(k + 1);
    e.parent_node = m;
    e.parent_side = bit ? 1 : 0;
    e.count = static_cast<std::uint32_t>(s.count);
    e.min_slot = slot;
    e.targets.push_back(slot);
    cur = next;
  }
}

void IncrementalPlanner::add_target_in_trie(Arena& a, Scratch& s,
                                            std::size_t p,
                                            std::uint32_t slot) {
  Trie& trie = tries_[p];
  std::uint32_t e;
  if (trie.root_edge == kNone && trie.root_node == kNone) {
    expand_target_path(a, s, p, kNone, 0, slot);
    return;
  }
  if (trie.root_edge != kNone) {
    const std::uint32_t root = trie.root_edge;
    const std::uint32_t anchor = a.edges[root].min_slot;
    const bool root_bit = epc_bit(anchor, p);
    if (epc_bit(slot, p) != root_bit) {
      // The new target lives in the untracked region: promote the root
      // to a depth-0 branch node and expand the target's side under it.
      const std::uint32_t n0 = alloc_node(a);
      a.nodes[n0].depth = 0;
      a.nodes[n0].parent_edge = kNone;
      a.nodes[n0].side[root_bit ? 1 : 0] = Side{root, 0};
      // The far side is the untracked region: every present tag outside
      // the root edge's subtree.
      const auto untracked =
          static_cast<std::uint32_t>(n_present_ - a.edges[root].count);
      a.nodes[n0].side[root_bit ? 0 : 1] = Side{kNone, untracked};
      a.edges[root].parent_node = n0;
      a.edges[root].parent_side = root_bit ? 1 : 0;
      trie.root_edge = kNone;
      trie.root_node = n0;
      expand_target_path(a, s, p, n0, root_bit ? 0 : 1, slot);
      return;
    }
    e = root;
  } else {
    const int b = epc_bit(slot, p) ? 1 : 0;
    e = a.nodes[trie.root_node].side[b].edge;
  }

  for (;;) {
    Edge& edge = a.edges[e];
    edge.targets.push_back(slot);
    if (epcs_[slot] < epcs_[edge.min_slot]) edge.min_slot = slot;
    const std::uint32_t child = edge.child_node;
    if (child == kNone) return;  // Shares the terminal suffix class.
    const int b = epc_bit(slot, p + a.nodes[child].depth) ? 1 : 0;
    const Side& side = a.nodes[child].side[b];
    if (side.edge != kNone) {
      e = side.edge;
      continue;
    }
    expand_target_path(a, s, p, child, b, slot);
    return;
  }
}

void IncrementalPlanner::remove_target_in_trie(std::size_t p,
                                               std::uint32_t slot) {
  Trie& trie = tries_[p];
  std::uint32_t e;
  if (trie.root_edge != kNone) {
    e = trie.root_edge;  // A target is never untracked.
  } else {
    const int b = epc_bit(slot, p) ? 1 : 0;
    e = arena_.nodes[trie.root_node].side[b].edge;
  }

  // Walk down removing the target; targets below are nested, so the first
  // edge whose list empties tops the target's now-private path.
  std::uint32_t e_top = kNone;
  for (;;) {
    Edge& edge = arena_.edges[e];
    auto& ts = edge.targets;
    const auto it = std::find(ts.begin(), ts.end(), slot);
    assert(it != ts.end());
    *it = ts.back();
    ts.pop_back();
    if (ts.empty()) {
      e_top = e;
      break;
    }
    if (edge.min_slot == slot) refresh_min_slot(edge);
    const std::uint32_t child = edge.child_node;
    if (child == kNone) return;  // Other targets share the suffix class.
    const int b = epc_bit(slot, p + arena_.nodes[child].depth) ? 1 : 0;
    e = arena_.nodes[child].side[b].edge;  // A target's side is always an edge.
  }

  // Collapse the private path below (and including) e_top into a blob.
  free_below(e_top);
  const std::uint32_t parent = arena_.edges[e_top].parent_node;
  if (parent == kNone) {
    free_edge(e_top);  // Last target of the trie: back to one big blob.
    trie.root_edge = kNone;
    return;
  }
  Node& m = arena_.nodes[parent];
  const int side = arena_.edges[e_top].parent_side;
  if (m.depth == 0) {
    // Depth-0 branch with one side now targetless: the survivor becomes
    // the root edge again and the freed side returns to untracked.
    const std::uint32_t other = m.side[1 - side].edge;
    assert(other != kNone);
    arena_.edges[other].parent_node = kNone;
    arena_.edges[other].parent_side = 0;
    trie.root_node = kNone;
    trie.root_edge = other;
    free_edge(e_top);
    free_node(parent);
    return;
  }
  m.side[side] = Side{kNone, arena_.edges[e_top].count};
  free_edge(e_top);
}

void IncrementalPlanner::splice_arena(Arena&& a, std::size_t p_begin,
                                      std::size_t p_end) {
  // Rebuild-time arenas only ever allocate (the add path never frees), so
  // a task arena is a dense prefix-free block: appending it after the
  // current arena and shifting every index by the offsets reproduces the
  // exact layout the serial p-major build would have produced.
  assert(a.free_edges.empty() && a.free_nodes.empty());
  const std::uint32_t edge_off =
      static_cast<std::uint32_t>(arena_.edges.size());
  const std::uint32_t node_off =
      static_cast<std::uint32_t>(arena_.nodes.size());
  for (Edge& e : a.edges) {
    if (e.parent_node != kNone) e.parent_node += node_off;
    if (e.child_node != kNone) e.child_node += node_off;
  }
  for (Node& n : a.nodes) {
    if (n.parent_edge != kNone) n.parent_edge += edge_off;
    for (const int side : {0, 1}) {
      if (n.side[side].edge != kNone) n.side[side].edge += edge_off;
    }
  }
  arena_.edges.insert(arena_.edges.end(),
                      std::make_move_iterator(a.edges.begin()),
                      std::make_move_iterator(a.edges.end()));
  arena_.nodes.insert(arena_.nodes.end(), a.nodes.begin(), a.nodes.end());
  arena_.live_edges += a.live_edges;
  for (std::size_t p = p_begin; p < p_end; ++p) {
    if (tries_[p].root_edge != kNone) tries_[p].root_edge += edge_off;
    if (tries_[p].root_node != kNone) tries_[p].root_node += node_off;
  }
}

void IncrementalPlanner::tag_arrived(std::uint32_t slot) {
  for (std::size_t p = 0; p < epc_bits_; ++p) arrive_in_trie(p, slot);
}

void IncrementalPlanner::tag_departed(std::uint32_t slot) {
  for (std::size_t p = 0; p < epc_bits_; ++p) depart_in_trie(p, slot);
}

void IncrementalPlanner::target_added(std::uint32_t slot) {
  is_target_[slot] = 1;
  target_slots_.push_back(slot);
  for (std::size_t p = 0; p < epc_bits_; ++p) {
    add_target_in_trie(arena_, scratch_, p, slot);
  }
}

void IncrementalPlanner::target_removed(std::uint32_t slot) {
  is_target_[slot] = 0;
  const auto it =
      std::find(target_slots_.begin(), target_slots_.end(), slot);
  assert(it != target_slots_.end());
  *it = target_slots_.back();
  target_slots_.pop_back();
  for (std::size_t p = 0; p < epc_bits_; ++p) remove_target_in_trie(p, slot);
}

// ------------------------------------------------------------- planning

double IncrementalPlanner::cost_of(std::size_t n) {
  if (cost_memo_.size() <= n) cost_memo_.resize(n + 1, -1.0);
  double& c = cost_memo_[n];
  if (c < 0.0) c = cost_model_.cost_seconds(n);
  return c;
}

bool IncrementalPlanner::dominated(const Edge& e) {
  if (e.child_node == kNone) return false;
  const Node& child = arena_.nodes[e.child_node];
  const int blob_side = child.side[0].edge == kNone   ? 0
                        : child.side[1].edge == kNone ? 1
                                                      : -1;
  if (blob_side < 0) return false;
  const std::uint32_t blob = child.side[blob_side].blob;
  assert(blob > 0);
  assert(arena_.edges[child.side[1 - blob_side].edge].count + blob == e.count);
  // Each gain k / C rounds with relative error <= 2^-53, so a relative
  // cost gap above 2^-50 keeps the cheaper row's gain strictly higher for
  // every k >= 1 (and its tie key is never consulted).
  return cost_of(e.count - blob) * (1.0 + 0x1p-50) < cost_of(e.count);
}

Schedule IncrementalPlanner::naive_schedule() const {
  Schedule plan;
  plan.used_naive_fallback = true;
  plan.covered_union = util::IndicatorBitmap(n_present_);
  for (std::size_t i = 0; i < sorted_slots_.size(); ++i) {
    const std::uint32_t slot = sorted_slots_[i];
    if (!is_target_[slot]) continue;
    ScheduledBitmask sel;
    sel.bitmask.pointer = 0;
    sel.bitmask.mask = epcs_[slot].bits();
    sel.covered_total = 1;
    sel.covered_targets = 1;
    plan.selections.push_back(std::move(sel));
    plan.covered_union.set(i);
    plan.estimated_cost_s += cost_model_.cost_seconds(1);
  }
  return plan;
}

Schedule IncrementalPlanner::run_greedy() {
  // Slot → EPC-sorted rank, the scene ordering of the oracle's bitmaps.
  rank_.assign(capacity_, 0);
  for (std::size_t i = 0; i < sorted_slots_.size(); ++i) {
    rank_[sorted_slots_[i]] = static_cast<std::uint32_t>(i);
  }

  remaining_.assign(capacity_, 0);
  std::size_t uncovered = target_slots_.size();
  for (const std::uint32_t t : target_slots_) remaining_[t] = 1;

  // Seed every live row that can win with its full-target-set gain, fresh
  // for round 1 (every row covers at least one target by construction).
  // The rows covering only target t all gain 1/C(count) while t is
  // uncovered and 0 after, so HeapLess ranks them in the same order in
  // every round: only t's HeapLess-best such row can ever be selected, and
  // it is the only one seeded (it is never dominated, as a dominated row
  // has a strictly better row with the same targets).
  best_single_.assign(capacity_, kNone);
  std::vector<HeapEntry> seed;
  seed.reserve(arena_.live_edges);
  for (std::uint32_t e = 0; e < arena_.edges.size(); ++e) {
    const Edge& edge = arena_.edges[e];
    if (!edge.alive) continue;
    const bool single = edge.targets.size() == 1;
    if (!single && dominated(edge)) continue;
    const double gain =
        static_cast<double>(edge.targets.size()) / cost_of(edge.count);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(rank_[edge.min_slot]) << 16) |
        (static_cast<std::uint64_t>(edge.p) << 8) |
        static_cast<std::uint64_t>(edge.d);
    const HeapEntry entry{gain, key, e, 1};
    if (!single) {
      seed.push_back(entry);
      continue;
    }
    std::uint32_t& best = best_single_[edge.min_slot];
    if (best == kNone) {
      best = static_cast<std::uint32_t>(seed.size());
      seed.push_back(entry);
    } else if (HeapLess{}(seed[best], entry)) {
      seed[best] = entry;
    }
  }
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap(
      HeapLess{}, std::move(seed));

  Schedule plan;
  plan.covered_union = util::IndicatorBitmap(n_present_);
  std::uint32_t round = 1;
  while (uncovered > 0) {
    std::uint32_t chosen = kNone;
    while (chosen == kNone) {
      if (heap.empty()) {
        throw std::logic_error("IncrementalPlanner: uncoverable target");
      }
      const HeapEntry top = heap.top();
      heap.pop();
      if (top.round == round) {
        chosen = top.edge;
        break;
      }
      std::size_t covered = 0;
      for (const std::uint32_t t : arena_.edges[top.edge].targets) {
        covered += remaining_[t];
      }
      if (covered == 0) continue;
      heap.push({static_cast<double>(covered) /
                     cost_of(arena_.edges[top.edge].count),
                 top.key, top.edge, round});
    }

    const Edge& edge = arena_.edges[chosen];
    ScheduledBitmask sel;
    sel.bitmask.pointer = static_cast<std::uint32_t>(edge.p);
    sel.bitmask.mask = epcs_[edge.min_slot].bits().substring(edge.p, edge.d);
    sel.covered_total = edge.count;
    std::size_t newly = 0;
    for (const std::uint32_t t : edge.targets) {
      if (remaining_[t]) {
        remaining_[t] = 0;
        ++newly;
      }
    }
    sel.covered_targets = newly;
    uncovered -= newly;
    plan.selections.push_back(std::move(sel));
    plan.estimated_cost_s += cost_model_.cost_seconds(edge.count);

    materialize(scratch_, edge.p, edge.d, edge.min_slot);
    for (const std::uint32_t w : scratch_.active) {
      std::uint64_t bits = scratch_.words[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        plan.covered_union.set(rank_[static_cast<std::size_t>(w) * 64 +
                                     static_cast<std::size_t>(b)]);
      }
    }
    ++round;
  }

  // Worst-case guard: if the "optimal" selection costs more than reading
  // each target individually, take the naive plan (§5.2).
  Schedule naive = naive_schedule();
  if (naive.estimated_cost_s < plan.estimated_cost_s) {
    return naive;
  }
  return plan;
}

void IncrementalPlanner::rebuild(const std::vector<util::Epc>& scene,
                                 const std::vector<std::uint8_t>& is_target) {
  epc_bits_ = scene.front().size();
  packed_words_ = (epc_bits_ + 63) / 64;
  capacity_ = 0;
  cap_words_ = 0;
  n_present_ = 0;
  epcs_.clear();
  packed_.clear();
  cols_one_.clear();
  cols_zero_.clear();
  present_.clear();
  free_slots_.clear();
  sorted_slots_.clear();
  is_target_.clear();
  target_slots_.clear();
  tries_.assign(epc_bits_, Trie{});
  // Recycle every row's targets buffer, last row first, so the rebuilt
  // table's row i pops the old row i's buffer.
  for (auto it = arena_.edges.rbegin(); it != arena_.edges.rend(); ++it) {
    it->targets.clear();
    arena_.spare_targets.push_back(std::move(it->targets));
  }
  arena_.edges.clear();
  arena_.nodes.clear();
  arena_.free_edges.clear();
  arena_.free_nodes.clear();
  arena_.live_edges = 0;

  ensure_capacity(scene.size());
  sorted_slots_.reserve(scene.size());
  for (const util::Epc& epc : scene) {
    sorted_slots_.push_back(alloc_slot(epc));
  }
  // Register every target first, then build the tries pointer-major: the
  // per-trie call sequence (ascending scene order per pointer) is the same
  // as the target-major order, and the add path reads only the slot
  // registry, so the resulting tries are identical — but pointer-major
  // makes each trie's construction independent, which is what the
  // parallel path shards.
  for (std::size_t i = 0; i < scene.size(); ++i) {
    if (!is_target[i]) continue;
    const std::uint32_t slot = sorted_slots_[i];
    is_target_[slot] = 1;
    target_slots_.push_back(slot);
  }
  const std::size_t threads = pool_ != nullptr ? pool_->thread_count() : 1;
  if (threads <= 1 || target_slots_.empty() || epc_bits_ < 2 * threads) {
    for (std::size_t p = 0; p < epc_bits_; ++p) {
      for (const std::uint32_t slot : target_slots_) {
        add_target_in_trie(arena_, scratch_, p, slot);
      }
    }
  } else {
    // Contiguous pointer ranges, one task-local arena each, spliced back
    // in task order: byte-identical to the serial pointer-major build
    // (see splice_arena).  Tasks share nothing mutable — each writes only
    // its own arena/scratch and its own tries_[p] range.
    const std::size_t chunks = std::min(threads, epc_bits_);
    std::vector<Arena> arenas(chunks);
    std::vector<Scratch> scratches(chunks);
    // Deal the spare buffers out evenly.
    auto& spares = arena_.spare_targets;
    const auto share = static_cast<std::ptrdiff_t>(spares.size() / chunks);
    for (Arena& a : arenas) {
      a.spare_targets.assign(std::make_move_iterator(spares.end() - share),
                             std::make_move_iterator(spares.end()));
      spares.erase(spares.end() - share, spares.end());
    }
    pool_->run(chunks, [&](std::size_t k) {
      const std::size_t p0 = k * epc_bits_ / chunks;
      const std::size_t p1 = (k + 1) * epc_bits_ / chunks;
      for (std::size_t p = p0; p < p1; ++p) {
        for (const std::uint32_t slot : target_slots_) {
          add_target_in_trie(arenas[k], scratches[k], p, slot);
        }
      }
    });
    for (std::size_t k = 0; k < chunks; ++k) {
      splice_arena(std::move(arenas[k]), k * epc_bits_ / chunks,
                   (k + 1) * epc_bits_ / chunks);
    }
  }
  // A rebuild only allocates: the table holds exactly the rows it built.
  assert(arena_.free_edges.empty() &&
         arena_.edges.size() == arena_.live_edges);
  // Release the buffers no row took, so the pool follows the structure.
  arena_.spare_targets.clear();
  arena_.spare_targets.shrink_to_fit();
  built_ = true;
}

Schedule IncrementalPlanner::plan_cycle(
    const std::vector<util::Epc>& scene,
    const std::vector<util::Epc>& targets) {
  if (scene.empty()) {
    throw std::invalid_argument("IncrementalPlanner::plan_cycle: empty scene");
  }
  const std::size_t bits = scene.front().size();
  for (std::size_t i = 0; i < scene.size(); ++i) {
    if (scene[i].size() != bits) {
      throw std::invalid_argument(
          "IncrementalPlanner::plan_cycle: mixed EPC lengths");
    }
    if (i > 0 && !(scene[i - 1] < scene[i])) {
      throw std::invalid_argument(
          "IncrementalPlanner::plan_cycle: scene not sorted/unique");
    }
  }
  for (std::size_t i = 1; i < targets.size(); ++i) {
    if (!(targets[i - 1] < targets[i])) {
      throw std::invalid_argument(
          "IncrementalPlanner::plan_cycle: targets not sorted/unique");
    }
  }

  // Which scene entries are targets (unknown target EPCs are ignored,
  // mirroring BitmaskIndex::bitmap_of).
  std::vector<std::uint8_t> scene_is_target(scene.size(), 0);
  std::size_t effective_targets = 0;
  {
    std::size_t j = 0;
    for (std::size_t i = 0; i < scene.size() && j < targets.size();) {
      if (scene[i] < targets[j]) {
        ++i;
      } else if (targets[j] < scene[i]) {
        ++j;
      } else {
        scene_is_target[i] = 1;
        ++effective_targets;
        ++i;
        ++j;
      }
    }
  }
  if (effective_targets == 0) {
    throw std::invalid_argument("IncrementalPlanner::plan_cycle: no targets");
  }

  ++stats_.cycles;
  bool need_rebuild = !built_ || bits != epc_bits_;
  stats_.last_arrivals = 0;
  stats_.last_departures = 0;
  stats_.last_target_adds = 0;
  stats_.last_target_removes = 0;
  stats_.last_churn = need_rebuild ? 1.0 : 0.0;

  std::vector<std::uint32_t> departures;
  std::vector<std::uint32_t> flip_removes;
  std::vector<std::uint32_t> flip_adds;
  std::vector<std::size_t> arrivals;  // Indices into `scene`.
  std::vector<std::uint32_t> new_sorted(scene.size(), kNone);
  if (!need_rebuild) {
    std::size_t i = 0;  // Over sorted_slots_ (previous scene, EPC order).
    std::size_t j = 0;  // Over the new scene.
    while (i < sorted_slots_.size() || j < scene.size()) {
      if (i == sorted_slots_.size()) {
        arrivals.push_back(j++);
      } else if (j == scene.size()) {
        departures.push_back(sorted_slots_[i++]);
      } else {
        const std::uint32_t slot = sorted_slots_[i];
        if (epcs_[slot] < scene[j]) {
          departures.push_back(slot);
          ++i;
        } else if (scene[j] < epcs_[slot]) {
          arrivals.push_back(j++);
        } else {
          new_sorted[j] = slot;
          if (scene_is_target[j] && !is_target_[slot]) {
            flip_adds.push_back(slot);
          } else if (!scene_is_target[j] && is_target_[slot]) {
            flip_removes.push_back(slot);
          }
          ++i;
          ++j;
        }
      }
    }
    const std::size_t events = arrivals.size() + departures.size() +
                               flip_adds.size() + flip_removes.size();
    stats_.last_arrivals = arrivals.size();
    stats_.last_departures = departures.size();
    stats_.last_target_adds = flip_adds.size();
    stats_.last_target_removes = flip_removes.size();
    stats_.last_churn =
        static_cast<double>(events) / static_cast<double>(scene.size());
    if (stats_.last_churn > churn_threshold_) need_rebuild = true;
  }

  if (need_rebuild) {
    ++stats_.full_rebuilds;
    stats_.last_was_rebuild = true;
    rebuild(scene, scene_is_target);
  } else {
    ++stats_.incremental_cycles;
    stats_.last_was_rebuild = false;
    for (const std::uint32_t slot : flip_removes) target_removed(slot);
    for (const std::uint32_t slot : departures) {
      if (is_target_[slot]) target_removed(slot);
      tag_departed(slot);
      release_slot(slot);
    }
    for (const std::size_t j : arrivals) {
      const std::uint32_t slot = alloc_slot(scene[j]);
      new_sorted[j] = slot;
      tag_arrived(slot);
    }
    sorted_slots_ = std::move(new_sorted);
    for (const std::size_t j : arrivals) {
      if (scene_is_target[j]) target_added(sorted_slots_[j]);
    }
    for (const std::uint32_t slot : flip_adds) target_added(slot);
  }

  stats_.live_rows = arena_.live_edges;
  // No rebuild and no delta: the structure, and so the greedy's output
  // under the fixed cost model, is the previous cycle's.
  if (!stats_.last_was_rebuild && stats_.last_churn == 0.0 && last_plan_) {
    return *last_plan_;
  }
  last_plan_.reset();
  last_plan_ = run_greedy();
  return *last_plan_;
}

}  // namespace tagwatch::core
