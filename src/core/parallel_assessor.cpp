#include "core/parallel_assessor.hpp"

#include <algorithm>
#include <cmath>

#include "util/circular.hpp"

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
      keying_(config_.detector.keying),
      pool_(threads),
      shards_(pool_.thread_count()) {
  const DetectorConfig& d = config_.detector;
  switch (config_.detector_kind) {
    case DetectorKind::kPhaseMog:
      mode_ = Mode::kMog;
      bank_a_ = {d.phase_mog, Metric::kCircular, true};
      break;
    case DetectorKind::kRssMog:
      mode_ = Mode::kMog;
      bank_a_ = {d.rss_mog, Metric::kLinear, false};
      break;
    case DetectorKind::kPhaseDiff:
      mode_ = Mode::kDiff;
      diff_phase_ = true;
      diff_threshold_ = d.phase_diff_threshold_rad;
      break;
    case DetectorKind::kRssDiff:
      mode_ = Mode::kDiff;
      diff_phase_ = false;
      diff_threshold_ = d.rss_diff_threshold_db;
      break;
    case DetectorKind::kHybridAnd:
    case DetectorKind::kHybridOr:
      mode_ = Mode::kHybrid;
      hybrid_require_both_ =
          config_.detector_kind == DetectorKind::kHybridAnd;
      bank_a_ = {d.phase_mog, Metric::kCircular, true};
      bank_b_ = {d.rss_mog, Metric::kLinear, false};
      break;
  }
  if (mode_ != Mode::kDiff) {
    // Validate mixture parameters up front with the exact checks (and
    // exceptions) ImmobilityModel applies on construction.
    (void)ImmobilityModel(bank_a_.config, bank_a_.metric);
    if (mode_ == Mode::kHybrid) {
      (void)ImmobilityModel(bank_b_.config, bank_b_.metric);
    }
  }
}

std::uint64_t ParallelAssessor::mog_key(std::uint8_t antenna,
                                        std::uint32_t channel) const noexcept {
  // Mirrors MogDetector::key_of under MogKeying.
  const std::uint64_t a = keying_.per_antenna ? antenna : 0u;
  const std::uint64_t c = keying_.per_channel ? channel : 0u;
  return (a << 32) | c;
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
  p.rssi_dbm = reading.rssi_dbm;
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

ParallelAssessor::KeyedState& ParallelAssessor::keyed_insert(
    TagSlot& slot, std::uint64_t key, bool& created) {
  const auto it = std::lower_bound(
      slot.keyed.begin(), slot.keyed.end(), key,
      [](const KeyedState& state, std::uint64_t k) { return state.key < k; });
  if (it != slot.keyed.end() && it->key == key) {
    created = false;
    return *it;
  }
  created = true;
  KeyedState fresh;
  fresh.key = key;
  return *slot.keyed.insert(it, fresh);
}

MotionVerdict ParallelAssessor::bank_observe(Shard& shard, KeyedState& state,
                                             bool bank_b, double value) {
  const BankSpec& spec = bank_b ? bank_b_ : bank_a_;
  std::vector<GaussianComponent>& bank = bank_b ? shard.comps_b
                                                : shard.comps_a;
  std::vector<std::uint32_t>& free_list =
      bank_b ? shard.free_blocks_b : shard.free_blocks_a;
  std::uint32_t& block = bank_b ? state.block_b : state.block_a;
  std::uint32_t& live = bank_b ? state.n_b : state.n_a;
  if (block == KeyedState::kNoBlock) {
    block = allocate_block(bank, free_list, spec.config.max_components);
    live = 0;
  }
  // Take the pointer only after allocation: the resize above may move the
  // bank's storage.
  std::size_t n = live;
  const MotionVerdict verdict =
      mog_observe(bank.data() + block, n, spec.config, spec.metric, value);
  live = static_cast<std::uint32_t>(n);
  return verdict;
}

void ParallelAssessor::drain_shard(Shard& shard) {
  for (const PendingReading& p : shard.pending) {
    TagSlot& slot = shard.slots[p.slot];
    MotionVerdict verdict = MotionVerdict::kMoving;
    switch (mode_) {
      case Mode::kMog: {
        bool created = false;
        KeyedState& state =
            keyed_insert(slot, mog_key(p.antenna, p.channel), created);
        const double value = bank_a_.use_phase ? p.phase_rad : p.rssi_dbm;
        verdict = bank_observe(shard, state, false, value);
        break;
      }
      case Mode::kDiff: {
        // Diff keys per (antenna, channel) unconditionally, like
        // DiffDetector.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(p.antenna) << 32) | p.channel;
        bool created = false;
        KeyedState& state = keyed_insert(slot, key, created);
        const double value = diff_phase_ ? p.phase_rad : p.rssi_dbm;
        if (created) {
          // First reading on a pair: no baseline yet — moving.
          verdict = MotionVerdict::kMoving;
        } else {
          const double dist =
              diff_phase_ ? util::circular_distance(value, state.last_value)
                          : std::abs(value - state.last_value);
          verdict = dist > diff_threshold_ ? MotionVerdict::kMoving
                                           : MotionVerdict::kStationary;
        }
        state.last_value = value;
        break;
      }
      case Mode::kHybrid: {
        bool created = false;
        KeyedState& state =
            keyed_insert(slot, mog_key(p.antenna, p.channel), created);
        const MotionVerdict phase =
            bank_observe(shard, state, false, p.phase_rad);
        const MotionVerdict rss = bank_observe(shard, state, true, p.rssi_dbm);
        const bool moving =
            hybrid_require_both_
                ? (phase == MotionVerdict::kMoving &&
                   rss == MotionVerdict::kMoving)
                : (phase == MotionVerdict::kMoving ||
                   rss == MotionVerdict::kMoving);
        verdict = moving ? MotionVerdict::kMoving : MotionVerdict::kStationary;
        break;
      }
    }
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
    if (state.block_a != KeyedState::kNoBlock) {
      shard.free_blocks_a.push_back(state.block_a);
    }
    if (state.block_b != KeyedState::kNoBlock) {
      shard.free_blocks_b.push_back(state.block_b);
    }
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
