#include "gen2/reader.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tagwatch::gen2 {

namespace {

/// Sentinel reply tick of collided tags: per Gen2, a tag whose counter is 0
/// and that receives QueryRep without having been acknowledged wraps its
/// counter and effectively leaves the frame until the next Query/QueryAdjust.
constexpr std::uint64_t kParkedTick =
    std::numeric_limits<std::uint64_t>::max() - 1;
/// Sentinel reply tick of tags read this round; the next redraw drops them.
constexpr std::uint64_t kReadTick = std::numeric_limits<std::uint64_t>::max();

std::uint8_t clamp_q(double qfp) {
  return static_cast<std::uint8_t>(std::lround(std::clamp(qfp, 0.0, 15.0)));
}

}  // namespace

Gen2Reader::Gen2Reader(LinkTiming timing, ReaderConfig config,
                       sim::World& world, const rf::RfChannel& channel,
                       std::vector<rf::Antenna> antennas, util::Rng rng,
                       std::shared_ptr<TagFlagField> flags)
    : timing_(std::move(timing)), config_(config), world_(&world),
      channel_(&channel), antennas_(std::move(antennas)), rng_(rng),
      flags_(std::move(flags)) {
  if (antennas_.empty()) {
    throw std::invalid_argument("Gen2Reader: need at least one antenna");
  }
  if (config_.q_step <= 0.0) {
    throw std::invalid_argument("Gen2Reader: q_step must be positive");
  }
  if (!flags_) {
    flags_ = std::make_shared<TagFlagField>(config_.session_timing);
  }
  next_hop_ = world_->now() + config_.channel_dwell;
}

bool Gen2Reader::in_field(const sim::SimTag& tag, util::SimTime t) const {
  if (!sim::World::is_present(tag, t)) return false;
  if (!config_.coverage) return true;
  return config_.coverage->contains(tag.motion->position(t));
}

void Gen2Reader::transmit_select(const SelectCommand& cmd) {
  hop_if_due();
  world_->advance(timing_.select(cmd.mask.size()));
  flags_->sync(*world_);
  const util::SimTime t = world_->now();
  const SessionTiming& st = flags_->timing();
  const std::vector<sim::SimTag>& tags = world_->tags();
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const sim::SimTag& tag = tags[i];
    if (!in_field(tag, t)) continue;
    apply_select_action(cmd, select_matches(cmd, tag.epc), flags_->at(i), t,
                        st);
  }
}

const TagFlags* Gen2Reader::find_flags(const util::Epc& epc) {
  return flags_->find(*world_, epc);
}

void Gen2Reader::set_active_antenna(std::size_t index) {
  if (index >= antennas_.size()) {
    throw std::out_of_range("Gen2Reader::set_active_antenna");
  }
  antenna_idx_ = index;
}

void Gen2Reader::gather_participants(const QueryCommand& query) {
  flags_->sync(*world_);
  parts_.clear();
  const util::SimTime t = world_->now();
  const std::vector<sim::SimTag>& tags = world_->tags();
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const sim::SimTag& tag = tags[i];
    if (!in_field(tag, t)) continue;
    const TagFlags& f = flags_->at(i);
    if (query.sel == QuerySel::kSl && !f.sl) continue;
    if (query.sel == QuerySel::kNotSl && f.sl) continue;
    if (f.session_flag_at(query.session, t) != query.target) continue;
    // Temporarily blocked/occluded tags miss the whole round (§4.3).
    if (tag.block_probability > 0.0 && rng_.chance(tag.block_probability)) {
      continue;
    }
    parts_.push_back({i, 0});
  }
}

std::size_t Gen2Reader::redraw(std::uint32_t frame_size, std::uint64_t tick) {
  const std::uint32_t frame = std::max<std::uint32_t>(frame_size, 1);
  std::size_t kept = 0;
  for (const Participant& p : parts_) {
    if (p.reply_tick == kReadTick) continue;
    parts_[kept++] = {p.tag_index, tick + rng_.below(frame)};
  }
  parts_.resize(kept);
  return kept;
}

void Gen2Reader::hop_if_due() {
  while (world_->now() >= next_hop_) {
    ++hop_counter_;
    channel_idx_ = channel_->plan().hop_channel(hop_counter_);
    next_hop_ += config_.channel_dwell;
  }
}

std::size_t Gen2Reader::reply_bits(const util::Epc& epc,
                                   const TagFlags& flags) const {
  // Truncated replies (Select Truncate=1): the tag transmits only the EPC
  // bits following the matched mask; the reader reconstructs the rest from
  // the mask it sent.
  if (flags.truncate_from != TagFlags::kNoTruncate &&
      flags.truncate_from < epc.size()) {
    return epc.size() - flags.truncate_from;
  }
  return epc.size();
}

rf::TagReading Gen2Reader::make_reading(std::size_t tag_index) {
  const sim::SimTag& tag = world_->tags()[tag_index];
  const util::SimTime t = world_->now();
  const rf::RfObservation obs = channel_->observe(
      antennas_[antenna_idx_], tag.motion->position(t), tag.tag_phase_rad,
      world_->reflectors_at(t), channel_idx_, rng_);
  return rf::TagReading{tag.epc, antennas_[antenna_idx_].id, channel_idx_,
                        obs.phase_rad, obs.rssi_dbm, t};
}

void Gen2Reader::run_binary_tree(const QueryCommand& query,
                                 const ReadCallback& on_read,
                                 RoundStats& stats) {
  // Capetanakis-style tree splitting: the whole population answers the
  // first slot; every collision splits the colliding set uniformly at
  // random into two subsets resolved depth-first.  Slot air times are the
  // same as for ALOHA (probe + reply windows).
  std::vector<std::vector<std::size_t>> stack;  // groups of tag indexes
  {
    std::vector<std::size_t> all;
    all.reserve(parts_.size());
    for (const auto& p : parts_) all.push_back(p.tag_index);
    stack.push_back(std::move(all));
  }
  while (!stack.empty() && stats.slots < config_.max_slots_per_round) {
    std::vector<std::size_t> group = std::move(stack.back());
    stack.pop_back();
    ++stats.slots;
    hop_if_due();
    if (group.empty()) {
      world_->advance(timing_.empty_slot());
      ++stats.empty_slots;
      continue;
    }
    if (group.size() == 1) {
      const std::size_t tag_index = group.front();
      const bool lost = config_.slot_error_rate > 0.0 &&
                        rng_.chance(config_.slot_error_rate);
      if (lost) {
        // Decode failure: the reader re-probes the same singleton set.
        world_->advance(timing_.collision_slot());
        ++stats.lost_slots;
        stack.push_back(std::move(group));
        continue;
      }
      TagFlags& flags = flags_->at(tag_index);
      const util::Epc& epc = world_->tags()[tag_index].epc;
      world_->advance(timing_.success_slot(reply_bits(epc, flags)));
      ++stats.success_slots;
      flags.toggle_session_flag(query.session, world_->now(),
                                flags_->timing());
      if (on_read) on_read(make_reading(tag_index));
      continue;
    }
    world_->advance(timing_.collision_slot());
    ++stats.collision_slots;
    std::vector<std::size_t> left, right;
    for (const std::size_t idx : group) {
      (rng_.chance(0.5) ? left : right).push_back(idx);
    }
    stack.push_back(std::move(right));
    stack.push_back(std::move(left));
  }
}

void Gen2Reader::read_participant(std::size_t pi, const QueryCommand& query,
                                  const ReadCallback& on_read,
                                  RoundStats& stats) {
  const std::size_t tag_index = parts_[pi].tag_index;
  TagFlags& flags = flags_->at(tag_index);
  const util::Epc& epc = world_->tags()[tag_index].epc;
  world_->advance(timing_.success_slot(reply_bits(epc, flags)));
  ++stats.success_slots;
  // Acknowledged tag inverts its inventoried flag for this session.
  flags.toggle_session_flag(query.session, world_->now(), flags_->timing());
  if (on_read) on_read(make_reading(tag_index));
  parts_[pi].reply_tick = kReadTick;
}

void Gen2Reader::run_aloha(const QueryCommand& query,
                           const ReadCallback& on_read, RoundStats& stats) {
  const AntiCollisionPolicy policy = config_.policy;
  double qfp = (config_.persist_q && persisted_qfp_)
                   ? *persisted_qfp_
                   : static_cast<double>(query.q);
  std::uint8_t q = clamp_q(qfp);
  // QueryReps issued so far this round: the clock of the reply ticks.
  std::uint64_t tick = 0;
  // Oracle DFSA: the frame length equals the number of competing tags.
  const auto dfsa_frame = [](std::size_t n) {
    return std::max(static_cast<std::uint32_t>(n), 1u);
  };
  std::size_t slots_left_in_frame =
      (policy == AntiCollisionPolicy::kIdealDfsa)
          ? dfsa_frame(parts_.size())
          : (std::size_t{1} << q);
  // Unread participants, and those of them not parked in this frame.
  std::size_t unread =
      redraw(static_cast<std::uint32_t>(slots_left_in_frame), tick);
  std::size_t active = unread;

  while (stats.slots < config_.max_slots_per_round) {
    // Round termination.
    if (unread == 0) {
      if (policy == AntiCollisionPolicy::kQAdaptive) {
        // The reader does not know the population is exhausted: it keeps
        // issuing slots, decaying Q on each empty one, until Q reaches 0 and
        // a final empty slot convinces it the round is over.
        while (qfp > 0.0 && stats.slots < config_.max_slots_per_round) {
          world_->advance(timing_.empty_slot());
          ++stats.slots;
          ++stats.empty_slots;
          qfp = std::max(0.0, qfp - config_.q_step);
        }
        world_->advance(timing_.empty_slot());
        ++stats.slots;
        ++stats.empty_slots;
      }
      break;
    }
    // FSA/Q-adaptive can deadlock if every remaining tag is parked; a frame
    // restart (new Query) un-parks them.
    if (active == 0 || slots_left_in_frame == 0) {
      switch (policy) {
        case AntiCollisionPolicy::kFixedQ:
          world_->advance(timing_.query());
          unread = redraw(1u << q, tick);
          slots_left_in_frame = 1u << q;
          break;
        case AntiCollisionPolicy::kIdealDfsa: {
          const std::uint32_t f = dfsa_frame(unread);
          world_->advance(timing_.query());
          unread = redraw(f, tick);
          slots_left_in_frame = f;
          break;
        }
        case AntiCollisionPolicy::kQAdaptive:
          world_->advance(timing_.query_adjust());
          q = clamp_q(qfp);
          unread = redraw(1u << q, tick);
          slots_left_in_frame = config_.max_slots_per_round;  // no frame bound
          break;
        case AntiCollisionPolicy::kBinaryTree:
          break;  // handled by run_binary_tree; unreachable here
      }
      active = unread;
      continue;
    }

    hop_if_due();

    // This slot's responders: the one scan of the slot.
    responders_.clear();
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (parts_[i].reply_tick == tick) responders_.push_back(i);
    }

    ++stats.slots;
    --slots_left_in_frame;

    if (responders_.empty()) {
      world_->advance(timing_.empty_slot());
      ++stats.empty_slots;
      if (policy == AntiCollisionPolicy::kQAdaptive) {
        qfp = std::max(0.0, qfp - config_.q_step);
      }
    } else if (responders_.size() == 1) {
      const std::size_t pi = responders_.front();
      const bool lost = config_.slot_error_rate > 0.0 &&
                        rng_.chance(config_.slot_error_rate);
      if (lost) {
        // RN16/EPC decode failure: costs a collision-like slot; the tag saw
        // no valid ACK, so it parks like a collided tag.
        world_->advance(timing_.collision_slot());
        ++stats.lost_slots;
        parts_[pi].reply_tick = kParkedTick;
      } else {
        read_participant(pi, query, on_read, stats);
        --unread;
      }
      --active;
    } else {
      // Capture effect: the receiver may still lock onto the strongest
      // (nearest) responder and read it as if the slot were singular; the
      // losers park as in a plain collision.
      if (config_.capture_probability > 0.0 &&
          rng_.chance(config_.capture_probability)) {
        std::size_t strongest = responders_.front();
        double best_d = std::numeric_limits<double>::infinity();
        const util::SimTime t = world_->now();
        const std::vector<sim::SimTag>& tags = world_->tags();
        for (const std::size_t pi : responders_) {
          const double d = util::distance(
              antennas_[antenna_idx_].position,
              tags[parts_[pi].tag_index].motion->position(t));
          if (d < best_d) {
            best_d = d;
            strongest = pi;
          }
        }
        read_participant(strongest, query, on_read, stats);
        --unread;
      } else {
        world_->advance(timing_.collision_slot());
        ++stats.collision_slots;
      }
      for (const std::size_t pi : responders_) {
        if (parts_[pi].reply_tick != kReadTick) {
          parts_[pi].reply_tick = kParkedTick;
        }
      }
      active -= responders_.size();
      if (policy == AntiCollisionPolicy::kQAdaptive) {
        qfp = std::min(15.0, qfp + config_.q_step);
      }
    }

    // QueryRep: every unparked, unread tag's counter steps toward its reply.
    ++tick;

    // Q-adaptive mid-round adjustment: when round(Qfp) drifts from Q, the
    // reader issues QueryAdjust and all arbitrating tags (parked included)
    // re-draw from the new frame.
    if (policy == AntiCollisionPolicy::kQAdaptive && clamp_q(qfp) != q &&
        unread != 0) {
      world_->advance(timing_.query_adjust());
      q = clamp_q(qfp);
      active = unread = redraw(1u << q, tick);
    }
    // Ideal DFSA restarts the frame after every success so that f always
    // equals the remaining population (§2.2's optimal scheme).
    if (policy == AntiCollisionPolicy::kIdealDfsa && !responders_.empty() &&
        unread != 0) {
      const std::uint32_t f = dfsa_frame(unread);
      world_->advance(timing_.query());
      active = unread = redraw(f, tick);
      slots_left_in_frame = f;
    }
  }

  // Population estimate for the next round (persist_q): frames sized to
  // the count just inventoried, the way COTS AutoSet modes carry state.
  if (policy == AntiCollisionPolicy::kQAdaptive) {
    persisted_qfp_ =
        std::log2(static_cast<double>(std::max<std::size_t>(
            stats.success_slots, 1)));
  }
}

RoundStats Gen2Reader::run_inventory_round(const QueryCommand& query,
                                           const ReadCallback& on_read) {
  RoundStats stats;
  const util::SimTime round_start = world_->now();
  hop_if_due();

  // τ0: carrier ramp, settling, host turnaround — then the opening Query.
  world_->advance(config_.round_overhead);
  world_->advance(timing_.query());

  gather_participants(query);
  if (config_.policy == AntiCollisionPolicy::kBinaryTree) {
    run_binary_tree(query, on_read, stats);
  } else {
    run_aloha(query, on_read, stats);
  }
  stats.duration = world_->now() - round_start;
  return stats;
}

}  // namespace tagwatch::gen2
