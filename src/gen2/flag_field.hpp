// TagFlagField: the dense per-tag-index session-flag mirror, shareable
// across readers.
//
// Session flags live on the *tag*, not on any reader: when several readers
// energize overlapping zones of one World, an ACK by reader 1 flips the
// same S2 flag reader 2 queries a moment later.  PR 5 buried this state
// inside Gen2Reader (one reader, one mirror); the fleet refactor hoists it
// here so N readers can be constructed over one shared field, while a
// single-reader setup keeps a private field and behaves exactly as before.
//
// The mirror is indexed like World::tags() (hot path: no hashing per slot)
// and repairs itself lazily against World::structure_epoch().  Tags removed
// from the world stash their flags by EPC together with the removal time
// (from World::departures()); on re-entry the stash is restored through
// TagFlags::power_cycle(), which applies the Gen2 persistence table to the
// de-energized gap.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gen2/tag_runtime.hpp"
#include "sim/world.hpp"
#include "util/epc.hpp"

namespace tagwatch::gen2 {

class TagFlagField {
 public:
  /// Default timing is persistent() — the legacy immortal-flag semantics.
  explicit TagFlagField(SessionTiming timing = SessionTiming::persistent())
      : timing_(timing) {}

  const SessionTiming& timing() const noexcept { return timing_; }

  /// Brings the mirror up to date with `world`: grows it for newly added
  /// tags and remaps it after remove_tag() reindexing (detected via
  /// World::structure_epoch()).  Flags of removed tags are stashed by EPC
  /// with their de-energize time and resume through power_cycle() if the
  /// tag is re-added.  Cheap no-op when nothing changed.
  void sync(const sim::World& world);

  /// Flags of the tag at dense index `i` (valid after sync()).
  TagFlags& at(std::size_t i) { return flags_[i]; }
  const TagFlags& at(std::size_t i) const { return flags_[i]; }

  std::size_t size() const noexcept { return flags_.size(); }

  /// Flags of a tag by EPC — in the field or stashed as departed — or
  /// nullptr if the field has never covered it.  Syncs first.
  const TagFlags* find(const sim::World& world, const util::Epc& epc);

  /// Census: how many present tags read B on `session` at `now` (decay
  /// applied).  B tags are invisible to target-A queries until re-armed or
  /// decayed — the quantity zone takeover's session-aware re-inventory
  /// exists to drive back down.  Syncs the mirror against `world` first.
  std::size_t count_b(const sim::World& world, Session session,
                      util::SimTime now);

 private:
  struct DepartedEntry {
    TagFlags flags;
    /// When the tag was de-energized, or nullopt for entries stashed only
    /// because a world reindex shifted their dense index (never unpowered).
    std::optional<util::SimTime> departed_at;
  };

  SessionTiming timing_;
  std::vector<TagFlags> flags_;
  std::vector<util::Epc> epcs_;
  std::unordered_map<util::Epc, DepartedEntry> departed_;
  std::uint64_t epoch_ = 0;
  /// Consumed prefix of World::departures().
  std::size_t departure_cursor_ = 0;
};

}  // namespace tagwatch::gen2
