// Tag-side persistent protocol state (flags) and Select evaluation.
//
// Real Gen2 tags hold an SL flag and four per-session inventoried flags in
// volatile state.  TagFlags models one tag's flags; the simulator keeps the
// population's in the dense gen2::TagFlagField mirror (flag_field.hpp) and
// applies Select commands exactly as the spec's match/non-match action
// table does.
#pragma once

#include <array>

#include "gen2/commands.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::gen2 {

/// Gen2 session-flag persistence windows (Gen2 Table 6.20).  A session's B
/// flag is not durable storage: S0 holds only while the tag is energized,
/// S1 decays back to A within a bounded window *regardless* of power, and
/// S2/S3 hold indefinitely while energized but only a couple of seconds
/// through a power loss.  kForever disables a window (the pre-fleet
/// simulator behavior, where flags were immortal).
struct SessionTiming {
  static constexpr util::SimDuration kForever = util::SimDuration::max();
  /// Spec bounds on the S1 window: persistence requests outside
  /// [500 ms, 5 s] are clamped into it, the way a real tag's RC-decay
  /// circuit bounds the hold time no matter what the deployment wants.
  static constexpr util::SimDuration kS1Min = util::msec(500);
  static constexpr util::SimDuration kS1Max = util::sec(5);

  /// How long S0 survives a power loss (spec: none — resets immediately).
  util::SimDuration s0_persistence = kForever;
  /// How long an S1 B flag holds after being set, powered or not.
  util::SimDuration s1_persistence = kForever;
  /// How long S2/S3 B flags survive a power loss (spec: >= 2 s nominal).
  util::SimDuration depowered_persistence = kForever;

  /// Immortal flags: the legacy simulator semantics (and a fine model for
  /// single-reader runs much shorter than any persistence window).
  static constexpr SessionTiming persistent() { return {}; }

  /// Nominal COTS tag behavior per the spec table: S0 drops at power loss,
  /// S1 decays after 2 s, S2/S3 survive 2 s of power loss.
  static constexpr SessionTiming spec_default() {
    return {util::SimDuration::zero(), util::sec(2), util::sec(2)};
  }

  /// The effective S1 window: clamped into [kS1Min, kS1Max] when finite.
  constexpr util::SimDuration s1_effective() const {
    if (s1_persistence == kForever) return kForever;
    return s1_persistence < kS1Min   ? kS1Min
           : s1_persistence > kS1Max ? kS1Max
                                     : s1_persistence;
  }
};

/// The flag state a single tag maintains across inventory rounds.
///
/// Each session's inventoried flag carries a decay deadline: reading the
/// flag through session_flag_at() applies S1's bounded persistence lazily
/// (a B flag whose deadline passed reads as A), so no per-tag timer wheel
/// is needed.  The deadline is stamped by set_session_flag() from a
/// SessionTiming; the raw accessors remain for code on the legacy immortal
/// semantics.
struct TagFlags {
  bool sl = false;
  std::array<InvFlag, 4> inventoried{InvFlag::kA, InvFlag::kA, InvFlag::kA,
                                     InvFlag::kA};
  /// Per-session instant at which a B flag reverts to A (kNever: no decay).
  static constexpr util::SimTime kNever = util::SimTime::max();
  std::array<util::SimTime, 4> decay_at{kNever, kNever, kNever, kNever};
  /// Truncation (Gen2 §6.3.2.12.1.1): when the last matching Select had its
  /// Truncate bit set, the tag backscatters only the EPC bits *after* the
  /// mask (the reader knows the masked prefix already), shortening the
  /// reply.  Holds the first EPC bit index to transmit, or npos when the
  /// full EPC is replied.
  static constexpr std::size_t kNoTruncate = static_cast<std::size_t>(-1);
  std::size_t truncate_from = kNoTruncate;

  InvFlag& session_flag(Session s) {
    return inventoried[static_cast<std::size_t>(s)];
  }
  InvFlag session_flag(Session s) const {
    return inventoried[static_cast<std::size_t>(s)];
  }

  /// The flag value a tag would present at time `now`: B decays to A once
  /// its deadline passes (S1's bounded persistence, evaluated lazily).
  InvFlag session_flag_at(Session s, util::SimTime now) const {
    const auto i = static_cast<std::size_t>(s);
    if (inventoried[i] == InvFlag::kB && now >= decay_at[i]) {
      return InvFlag::kA;
    }
    return inventoried[i];
  }

  /// Writes a session flag at time `now`, stamping the decay deadline per
  /// `timing` (only S1 decays while powered; A never decays).
  void set_session_flag(Session s, InvFlag v, util::SimTime now,
                        const SessionTiming& timing) {
    const auto i = static_cast<std::size_t>(s);
    inventoried[i] = v;
    decay_at[i] = kNever;
    if (v == InvFlag::kB && s == Session::kS1) {
      const util::SimDuration window = timing.s1_effective();
      if (window != SessionTiming::kForever) decay_at[i] = now + window;
    }
  }

  /// Inverts a session flag the way an acknowledged tag does, honoring any
  /// decay that already happened (a decayed B toggles A→B, not B→A).
  void toggle_session_flag(Session s, util::SimTime now,
                           const SessionTiming& timing) {
    const InvFlag cur = session_flag_at(s, now);
    set_session_flag(s, cur == InvFlag::kA ? InvFlag::kB : InvFlag::kA, now,
                     timing);
  }

  /// Applies a de-energized interval [departed_at, now): S0 flags reset
  /// once their (spec: zero-length) hold expires, S2/S3 flags reset when
  /// the outage outlasts the depowered window, and S1 relies on the decay
  /// deadline it already carries (its window ticks the same powered or
  /// not).  A zero-length gap is a no-op — reindex stashes that never
  /// de-energized the tag pass through unchanged.
  void power_cycle(util::SimTime departed_at, util::SimTime now,
                   const SessionTiming& timing) {
    if (now <= departed_at) return;
    const util::SimDuration gap = now - departed_at;
    const auto reset = [this](Session s) {
      inventoried[static_cast<std::size_t>(s)] = InvFlag::kA;
      decay_at[static_cast<std::size_t>(s)] = kNever;
    };
    if (timing.s0_persistence != SessionTiming::kForever &&
        gap > timing.s0_persistence) {
      reset(Session::kS0);
    }
    if (timing.depowered_persistence != SessionTiming::kForever &&
        gap > timing.depowered_persistence) {
      reset(Session::kS2);
      reset(Session::kS3);
    }
  }
};

/// Evaluates whether `epc` matches a Select's (bank, pointer, mask) rule.
/// Only the EPC bank is modeled; Select on other banks never matches.
bool select_matches(const SelectCommand& cmd, const util::Epc& epc);

/// Applies a Select command's action to one tag's flags, given whether the
/// tag matched the mask (Gen2 Table 6.30 semantics for both SL and session
/// targets).  Legacy immortal-flag form: no decay deadline is stamped.
void apply_select_action(const SelectCommand& cmd, bool matched,
                         TagFlags& flags);

/// Timed form: session-flag writes go through set_session_flag() so S1
/// writes pick up their decay deadline from `timing`.
void apply_select_action(const SelectCommand& cmd, bool matched,
                         TagFlags& flags, util::SimTime now,
                         const SessionTiming& timing);

}  // namespace tagwatch::gen2
