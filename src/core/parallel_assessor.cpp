#include "core/parallel_assessor.hpp"

#include <algorithm>

namespace tagwatch::core {

namespace {

/// Pops a free block or grows the bank by one block of `k` components.
std::uint32_t allocate_block(std::vector<GaussianComponent>& bank,
                             std::vector<std::uint32_t>& free_list,
                             std::size_t k) {
  if (!free_list.empty()) {
    const std::uint32_t block = free_list.back();
    free_list.pop_back();
    return block;
  }
  const std::size_t offset = bank.size();
  bank.resize(offset + k);
  return static_cast<std::uint32_t>(offset);
}

}  // namespace

ParallelAssessor::ParallelAssessor(AssessorConfig config, std::size_t threads)
    : config_(std::move(config)),
      pool_(threads),
      shards_(pool_.thread_count()) {
  // Validate mixture parameters up front with the exact checks (and
  // exceptions) ImmobilityModel applies on construction.
  (void)ImmobilityModel(config_.immobility, Metric::kCircular);
}

void ParallelAssessor::begin_window() {
  // Readings buffered before the window belong to closed-window semantics:
  // drain them before the epoch moves.
  flush();
  ++window_epoch_;
  window_open_ = true;
  last_window_.clear();
}

void ParallelAssessor::ingest(const rf::TagReading& reading) {
  auto [it, inserted] = routes_.try_emplace(reading.epc);
  if (inserted) {
    const std::size_t shard_index = reading.epc.hash() % shards_.size();
    Shard& shard = shards_[shard_index];
    std::uint32_t slot_index;
    if (!shard.free_slots.empty()) {
      slot_index = shard.free_slots.back();
      shard.free_slots.pop_back();
    } else {
      slot_index = static_cast<std::uint32_t>(shard.slots.size());
      shard.slots.emplace_back();
    }
    TagSlot& slot = shard.slots[slot_index];
    slot.epc = reading.epc;
    slot.window_epoch = 0;  // Never equals an open epoch (those are >= 1).
    slot.window_readings = 0;
    slot.moving_votes = 0;
    slot.live = true;
    it->second = Route{static_cast<std::uint32_t>(shard_index), slot_index};
  }
  const Route route = it->second;
  Shard& shard = shards_[route.shard];
  PendingReading p;
  p.slot = route.slot;
  p.channel = static_cast<std::uint32_t>(reading.channel);
  p.antenna = reading.antenna;
  p.phase_rad = reading.phase_rad;
  p.timestamp = reading.timestamp;
  shard.pending.push_back(p);
}

void ParallelAssessor::flush() {
  bool any = false;
  for (const Shard& shard : shards_) {
    if (!shard.pending.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  pool_.run(shards_.size(),
            [this](std::size_t s) { drain_shard(shards_[s]); });
}

ParallelAssessor::KeyedState& ParallelAssessor::keyed_state(
    Shard& shard, TagSlot& slot, std::uint64_t key) {
  const auto it = std::lower_bound(
      slot.keyed.begin(), slot.keyed.end(), key,
      [](const KeyedState& state, std::uint64_t k) { return state.key < k; });
  if (it != slot.keyed.end() && it->key == key) return *it;
  KeyedState fresh;
  fresh.key = key;
  fresh.block = allocate_block(shard.comps, shard.free_blocks,
                               config_.immobility.max_components);
  return *slot.keyed.insert(it, fresh);
}

void ParallelAssessor::drain_shard(Shard& shard) {
  for (const PendingReading& p : shard.pending) {
    TagSlot& slot = shard.slots[p.slot];
    // Phase is only comparable within one (antenna, channel) pair.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.antenna) << 32) | p.channel;
    KeyedState& state = keyed_state(shard, slot, key);
    std::size_t n = state.n;
    const MotionVerdict verdict =
        mog_observe(shard.comps.data() + state.block, n, config_.immobility,
                    Metric::kCircular, p.phase_rad);
    state.n = static_cast<std::uint32_t>(n);
    slot.last_seen = p.timestamp;
    if (window_open_) {
      if (slot.window_epoch != window_epoch_) {
        slot.window_epoch = window_epoch_;
        slot.window_readings = 0;
        slot.moving_votes = 0;
      }
      ++slot.window_readings;
      if (verdict == MotionVerdict::kMoving) ++slot.moving_votes;
    }
  }
  shard.pending.clear();
}

void ParallelAssessor::evict(Shard& shard, std::uint32_t slot_index) {
  TagSlot& slot = shard.slots[slot_index];
  for (const KeyedState& state : slot.keyed) {
    shard.free_blocks.push_back(state.block);
  }
  slot.keyed.clear();
  slot.live = false;
  routes_.erase(slot.epc);
  shard.free_slots.push_back(slot_index);
}

const std::vector<TagAssessment>& ParallelAssessor::assess(util::SimTime now) {
  if (!window_open_) {
    // The window is already closed: replay its cached result instead of
    // re-applying forget_after eviction at a later `now` (which would
    // silently drop tags the window did assess).
    return last_window_;
  }
  flush();
  window_open_ = false;
  last_window_.clear();
  for (Shard& shard : shards_) {
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(shard.slots.size()); ++s) {
      TagSlot& slot = shard.slots[s];
      if (!slot.live) continue;
      if (now - slot.last_seen > config_.forget_after) {
        // §4.3: a tag gone for a long while has its models removed.
        evict(shard, s);
        continue;
      }
      if (slot.window_epoch == window_epoch_ && slot.window_readings > 0) {
        TagAssessment a;
        a.epc = slot.epc;
        a.window_readings = slot.window_readings;
        a.moving_votes = slot.moving_votes;
        a.mobile = slot.moving_votes >= config_.mobile_vote_threshold;
        last_window_.push_back(std::move(a));
      }
    }
  }
  std::sort(last_window_.begin(), last_window_.end(),
            [](const TagAssessment& a, const TagAssessment& b) {
              return a.epc < b.epc;
            });
  return last_window_;
}

std::vector<util::Epc> ParallelAssessor::mobile_tags(util::SimTime now) {
  std::vector<util::Epc> mobile;
  for (const TagAssessment& a : assess(now)) {
    if (a.mobile) mobile.push_back(a.epc);
  }
  return mobile;
}

}  // namespace tagwatch::core
