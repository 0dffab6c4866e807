// The reader-side inventory engine: slotted-ALOHA arbitration over the
// simulated tag population, with FSA, ideal DFSA, and Q-adaptive policies.
//
// This is the substrate substituting for the ImpinJ R420: identical
// link-layer mechanics (Select/Query/QueryAdjust/QueryRep/ACK slotting,
// session flags, per-slot timing) driving a simulated clock instead of RF
// hardware.  Successful reads are materialized into TagReading records with
// phase/RSSI drawn from the RF channel model at the exact slot time.
//
// Slot engine (the ALOHA policies).  A round counts QueryRep ticks from 0.
// Every Query, QueryAdjust or frame restart *redraws*: each unread
// participant gets the absolute tick `now + below(frame)` at which it
// replies, so a tag's Gen2 slot counter is its reply tick minus the current
// tick and nothing is decremented per slot.  A slot is one scan for
// participants whose reply tick equals the current tick.  Collided (parked)
// and read participants carry sentinel ticks that never match; read ones
// stay in place until the next redraw compacts them out.  Running counts of
// active (unparked, unread) and unread participants drive frame restarts
// and round termination.  The participant and responder vectors are
// reused members, so once they have grown to the population a slot
// allocates nothing.
//
// RNG-order contract.  Every simulated outcome hangs off the reader's one
// RNG stream, drawn in exactly this order: the block draw of each blockable
// tag while gathering participants (world order); at every redraw, one
// below(frame) per unread participant in gather order, parked ones
// included; in a singleton slot, one slot-error draw (when
// slot_error_rate > 0); in a collided slot, one capture draw (when
// capture_probability > 0), the capture going to the responder nearest the
// active antenna, the first in gather order on ties; then the RF
// observation of each read.  Tests pin the outcomes this order produces
// (Gen2Reader.GoldenSlotEngineOutcomes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "gen2/commands.hpp"
#include "gen2/flag_field.hpp"
#include "gen2/link_params.hpp"
#include "gen2/tag_runtime.hpp"
#include "rf/channel.hpp"
#include "rf/measurement.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace tagwatch::gen2 {

/// Anti-collision policy for an inventory round.
enum class AntiCollisionPolicy {
  kFixedQ,      ///< Framed Slotted ALOHA with a constant frame size 2^Q.
  kIdealDfsa,   ///< Oracle DFSA: frame length always equals remaining tags.
  kQAdaptive,   ///< The COTS Q algorithm (award/punish Qfp adjustment).
  kBinaryTree,  ///< Basic binary tree splitting (Capetanakis-style): each
                ///< collision splits the colliding set by a coin flip; the
                ///< TDMA baseline family the paper's §8 surveys.
};

/// Reader configuration.
struct ReaderConfig {
  AntiCollisionPolicy policy = AntiCollisionPolicy::kQAdaptive;
  /// Q-adaptive step C (Gen2 Annex D suggests 0.1–0.5).
  double q_step = 0.35;
  /// Per-round fixed overhead τ0: carrier settle, Select delivery, host
  /// turnaround and report flush.  The paper measures 19 ms on the R420.
  util::SimDuration round_overhead = util::msec(19);
  /// Probability that an otherwise-successful single reply is lost (RN16 or
  /// EPC decode error) — failure injection for robustness tests.
  double slot_error_rate = 0.0;
  /// Capture effect: probability that a collided slot still decodes the
  /// strongest responder (the tag closest to the active antenna).  Real
  /// UHF receivers capture routinely; it skews reads toward near tags.
  double capture_probability = 0.0;
  /// Frequency-hop dwell time (China band regulation ~400 ms).
  util::SimDuration channel_dwell = util::msec(400);
  /// Runaway guard: abort a round after this many slots.
  std::size_t max_slots_per_round = 200'000;
  /// Carry the adapted Qfp across rounds (COTS readers do): the next
  /// round's frame starts from the previous round's converged estimate
  /// instead of the Query's initial Q.
  bool persist_q = false;
  /// Session-flag persistence windows applied by the reader's (private)
  /// flag field.  Ignored when the reader is constructed over a shared
  /// TagFlagField, which carries its own timing.
  SessionTiming session_timing = SessionTiming::persistent();
  /// Coverage zone: when set, the reader's RF field reaches only tags
  /// whose position lies inside it — Selects and inventory rounds skip
  /// everything else.  nullopt (default) covers the whole world, the
  /// single-reader behavior.
  std::optional<sim::Zone> coverage;
};

/// Per-round outcome counters.
struct RoundStats {
  std::size_t slots = 0;
  std::size_t empty_slots = 0;
  std::size_t collision_slots = 0;
  std::size_t success_slots = 0;
  std::size_t lost_slots = 0;       ///< Injected decode failures.
  util::SimDuration duration{0};    ///< Air + overhead time of the round.
};

/// Accumulates one round's counters into a running total.
inline RoundStats& operator+=(RoundStats& total, const RoundStats& round) {
  total.slots += round.slots;
  total.empty_slots += round.empty_slots;
  total.collision_slots += round.collision_slots;
  total.success_slots += round.success_slots;
  total.lost_slots += round.lost_slots;
  total.duration += round.duration;
  return total;
}

/// Invoked for every successful tag read, in slot order.
using ReadCallback = std::function<void(const rf::TagReading&)>;

/// Simulated EPC Gen2 reader bound to a World and an RF channel model.
class Gen2Reader {
 public:
  /// The reader transmits through `antennas` (at least one).  `world` and
  /// `channel` must outlive the reader.  `flags` is the session-flag field
  /// the reader energizes: pass one shared field to several readers so
  /// they see each other's A/B flips (fleet deployments); nullptr gives
  /// the reader a private field built from config.session_timing (the
  /// classic single-reader setup).
  Gen2Reader(LinkTiming timing, ReaderConfig config, sim::World& world,
             const rf::RfChannel& channel, std::vector<rf::Antenna> antennas,
             util::Rng rng, std::shared_ptr<TagFlagField> flags = nullptr);

  /// Broadcasts a Select command: advances the clock by the command's air
  /// time and updates the flags of every tag currently in the field.
  void transmit_select(const SelectCommand& cmd);

  /// Runs one full inventory round opened by `query`, reporting each
  /// successful read through `on_read`.  Advances the simulation clock by
  /// the round's total duration (including round_overhead).  `on_read`
  /// must not re-enter this reader: the round's state lives in members.
  RoundStats run_inventory_round(const QueryCommand& query,
                                 const ReadCallback& on_read);

  /// Selects the active antenna port by index into the antenna list.
  void set_active_antenna(std::size_t index);
  const rf::Antenna& active_antenna() const {
    return antennas_.at(antenna_idx_);
  }
  std::size_t antenna_count() const noexcept { return antennas_.size(); }

  /// Current frequency channel (index into the channel plan).
  std::size_t current_channel() const noexcept { return channel_idx_; }

  util::SimTime now() const noexcept { return world_->now(); }
  const rf::RfChannel& channel() const noexcept { return *channel_; }
  const LinkTiming& timing() const noexcept { return timing_; }
  const ReaderConfig& config() const noexcept { return config_; }
  sim::World& world() noexcept { return *world_; }

  /// Replaces the coverage zone (nullopt = whole world).  Zone takeover
  /// widens a fleet survivor's field at runtime; only subsequent Selects
  /// and rounds see the new footprint.
  void set_coverage(std::optional<sim::Zone> zone) {
    config_.coverage = std::move(zone);
  }

  /// Protocol flags of a tag (in the field or departed), or nullptr if the
  /// reader has never interacted with it.  Diagnostics/tests; may refresh
  /// the dense mirror against the world first.
  const TagFlags* find_flags(const util::Epc& epc);

  /// The session-flag field this reader energizes (shared or private).
  TagFlagField& flag_field() noexcept { return *flags_; }
  std::shared_ptr<TagFlagField> flag_field_ptr() const noexcept {
    return flags_;
  }

 private:
  struct Participant {
    std::size_t tag_index;     ///< Index into world tags.
    /// QueryRep tick of the reply in the current frame, or a sentinel
    /// (parked after a collision, or already read) that never matches.
    std::uint64_t reply_tick;
  };

  /// True when the tag is present *and* inside this reader's coverage
  /// zone at time `t` — i.e. the reader's carrier actually energizes it.
  bool in_field(const sim::SimTag& tag, util::SimTime t) const;
  /// Fills parts_ with the tags in the field whose flags satisfy the
  /// query's Sel/session/target, in world order.
  void gather_participants(const QueryCommand& query);
  /// Tree-splitting arbitration over parts_ (kBinaryTree policy).
  void run_binary_tree(const QueryCommand& query, const ReadCallback& on_read,
                       RoundStats& stats);
  /// ALOHA arbitration over parts_ (kFixedQ, kIdealDfsa, kQAdaptive).
  void run_aloha(const QueryCommand& query, const ReadCallback& on_read,
                 RoundStats& stats);
  /// Opens a frame of `frame_size` slots at QueryRep tick `tick`: drops
  /// read participants and draws every other one a reply tick.  Returns
  /// the number of unread participants.
  std::size_t redraw(std::uint32_t frame_size, std::uint64_t tick);
  /// Reads participant `pi` in a successful slot: charges the slot, flips
  /// the session flag, reports the reading and marks the participant read.
  void read_participant(std::size_t pi, const QueryCommand& query,
                        const ReadCallback& on_read, RoundStats& stats);
  void hop_if_due();
  /// EPC bits a tag actually backscatters (full, or truncated per Select).
  std::size_t reply_bits(const util::Epc& epc, const TagFlags& flags) const;
  rf::TagReading make_reading(std::size_t tag_index);

  LinkTiming timing_;
  ReaderConfig config_;
  sim::World* world_;
  const rf::RfChannel* channel_;
  std::vector<rf::Antenna> antennas_;
  util::Rng rng_;
  /// The session-flag field (dense per-tag-index mirror; see
  /// gen2/flag_field.hpp).  Shared across readers in fleet deployments,
  /// private otherwise — never null.
  std::shared_ptr<TagFlagField> flags_;
  std::size_t antenna_idx_ = 0;
  std::size_t channel_idx_ = 0;
  std::size_t hop_counter_ = 0;
  util::SimTime next_hop_{0};
  /// Last round's converged Qfp (used when persist_q is set).
  std::optional<double> persisted_qfp_;
  /// The current round's participants, in gather order (scratch, reused).
  std::vector<Participant> parts_;
  /// The current slot's responders as indexes into parts_ (scratch).
  std::vector<std::size_t> responders_;
};

}  // namespace tagwatch::gen2
