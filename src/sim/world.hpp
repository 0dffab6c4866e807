// The simulated scene: tags, environmental reflectors, and the clock.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rf/propagation.hpp"
#include "sim/motion.hpp"
#include "util/epc.hpp"
#include "util/geometry.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::sim {

/// A physical tag in the scene.
struct SimTag {
  util::Epc epc;
  std::shared_ptr<const MotionModel> motion;
  /// Intrinsic backscatter phase offset θ_tag of this tag's IC/antenna —
  /// constant per tag, random across tags.
  double tag_phase_rad = 0.0;
  /// Time window during which the tag is in reader range.  Tags outside
  /// their window do not respond (§4.3 "reading exceptions": tags may come
  /// in, go out, or be temporarily blocked).
  util::SimTime arrives{0};
  std::optional<util::SimTime> departs;
  /// Temporarily blocked (detuned/occluded) intervals are modeled with a
  /// per-read blocking probability.
  double block_probability = 0.0;
};

/// A moving scatterer (person, forklift) generating multipath.
struct SimReflector {
  std::shared_ptr<const MotionModel> motion;
  double reflection_coefficient = 0.2;
};

/// A reader's nominal coverage region: a named disc (cylinder — z ignored)
/// on the warehouse floor.  Fleet deployments register one zone per reader;
/// zones may overlap, which is exactly the case cross-reader dedup and
/// session coordination exist for.
struct Zone {
  std::string name;
  util::Vec3 center;
  double radius_m = 0.0;

  /// True when `p` lies inside the zone footprint (boundary inclusive; the
  /// z coordinate is ignored — antennas mount overhead).
  bool contains(util::Vec3 p) const noexcept {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    return dx * dx + dy * dy <= radius_m * radius_m;
  }
};

/// A tag leaving the scene via World::remove_tag(), with the clock reading
/// at removal.  Flag mirrors consume this to apply Gen2 power-loss
/// persistence (a removed tag is de-energized from that instant).
struct TagDeparture {
  util::Epc epc;
  util::SimTime at{0};
};

/// Scene container plus the simulation clock.
///
/// The Gen2 reader advances the clock as it executes protocol operations;
/// everything else (positions, reflections) is evaluated lazily at the
/// current time.
class World {
 public:
  /// Adds a tag; returns its dense index (used by benches for bookkeeping).
  std::size_t add_tag(SimTag tag);

  /// Adds an environmental reflector.
  void add_reflector(SimReflector reflector);

  /// Removes a tag by EPC; returns true if it existed.
  bool remove_tag(const util::Epc& epc);

  /// Replaces a tag's motion model (a stationary tag starts moving, a
  /// mover comes to rest); returns true if the tag existed.  Bumps
  /// mobility_epoch() — mutating tags() in place would be invisible to
  /// epoch-synced consumers, so this is the sanctioned way to flip a
  /// tag's mobility state mid-simulation.
  bool set_tag_motion(const util::Epc& epc,
                      std::shared_ptr<const MotionModel> motion);

  const std::vector<SimTag>& tags() const noexcept { return tags_; }
  std::vector<SimTag>& tags() noexcept { return tags_; }

  /// Looks up a tag by EPC (index into tags()), or nullopt.
  std::optional<std::size_t> find_tag(const util::Epc& epc) const;

  /// True if the tag indexed by `i` is in range at time `t`.
  bool tag_present(std::size_t i, util::SimTime t) const;

  /// tag_present() without the index lookup, for callers already iterating
  /// tags() (the Gen2 hot loops).
  static bool is_present(const SimTag& tag, util::SimTime t) noexcept {
    if (t < tag.arrives) return false;
    if (tag.departs && t >= *tag.departs) return false;
    return true;
  }

  /// Bumped whenever tag indexes are invalidated (remove_tag() reindexes
  /// the tail).  Index-keyed caches (the reader's dense flag mirror)
  /// compare this to detect that they must remap; pure growth via
  /// add_tag() keeps old indexes valid and does NOT bump it.
  std::uint64_t structure_epoch() const noexcept { return structure_epoch_; }

  /// Bumped whenever a tag's motion model is replaced via
  /// set_tag_motion().  structure_epoch() deliberately does NOT move on a
  /// mobility flip (indexes stay valid), so consumers that track the
  /// mover set — the incremental Phase-II planner, mobility-keyed caches —
  /// watch this epoch instead; the pair (structure, mobility) changes iff
  /// anything the planner depends on changed.
  std::uint64_t mobility_epoch() const noexcept { return mobility_epoch_; }

  /// Append-only log of remove_tag() events, oldest first.  Flag mirrors
  /// keep a cursor into this to learn *when* a tag was de-energized (the
  /// epoch bump alone says only that indexes shifted, not at what time).
  const std::vector<TagDeparture>& departures() const noexcept {
    return departures_;
  }

  /// Snapshot of all reflector positions at time `t` for the RF channel.
  std::vector<rf::Reflector> reflectors_at(util::SimTime t) const;

  util::SimTime now() const noexcept { return now_; }

  /// Advances the clock; `dt` must be non-negative.
  void advance(util::SimDuration dt);

  /// Jumps the clock forward to `t` (no-op if t is in the past).
  void advance_to(util::SimTime t);

 private:
  std::vector<SimTag> tags_;
  std::vector<SimReflector> reflectors_;
  std::vector<TagDeparture> departures_;
  std::unordered_map<util::Epc, std::size_t> index_;
  util::SimTime now_{0};
  std::uint64_t structure_epoch_ = 0;
  std::uint64_t mobility_epoch_ = 0;
};

}  // namespace tagwatch::sim
