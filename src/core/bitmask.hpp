// Select bitmasks and the candidate index table (paper §5.2–5.3, Fig. 10).
//
// A bitmask S(m, p, l) selects every tag whose EPC bits [p, p+l) equal m.
// The search space of useful candidates is the n'·L(L+1)/2 masks anchored
// at substrings of the n' target EPCs; each is paired with an indicator
// bitmap over the scene (bit i set ⇔ tag i covered).  Enumeration uses an
// incremental-AND sweep: for a fixed target and pointer, extending the mask
// by one bit intersects the coverage with the per-bit-position tag sets,
// so the whole table costs O(n'·L²) bitmap ANDs of ⌈n/64⌉ words each
// instead of re-matching EPCs.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "util/bitstring.hpp"
#include "util/epc.hpp"
#include "util/indicator_bitmap.hpp"

namespace tagwatch::util {
class TaskPool;
}

namespace tagwatch::core {

/// One Gen2 Select bitmask over the EPC bank.
struct Bitmask {
  std::uint32_t pointer = 0;
  util::BitString mask;

  bool covers(const util::Epc& epc) const { return epc.matches(pointer, mask); }

  /// Renders as the paper's S(mask, pointer, length) notation.
  std::string to_string() const;

  friend bool operator==(const Bitmask&, const Bitmask&) = default;
};

/// A candidate bitmask with its scene coverage.
struct BitmaskCandidate {
  Bitmask bitmask;
  util::IndicatorBitmap coverage;  ///< Over the index's scene ordering.
  /// |coverage ∩ targets| for the target set the table was built against —
  /// the numerator of the first-round greedy gain, precomputed here so the
  /// lazy scheduler can seed its heap without rescanning every coverage.
  std::size_t targets_covered = 0;
};

/// The pre-built indexed table over the tags in the scene.
///
/// Construction fixes the scene (all current tags, target or not, ordered
/// by EPC as in Fig. 10); candidates_for() enumerates the deduplicated
/// candidate rows for a given target subset.
class BitmaskIndex {
 public:
  /// Builds the index over `scene` (deduplicated, then sorted by EPC).
  /// All EPCs must have the same bit length.
  explicit BitmaskIndex(std::vector<util::Epc> scene);

  const std::vector<util::Epc>& scene() const noexcept { return scene_; }
  std::size_t scene_size() const noexcept { return scene_.size(); }
  std::size_t epc_bits() const noexcept { return epc_bits_; }

  /// Indicator bitmap with bits set for each EPC of `subset` that is in the
  /// scene (unknown EPCs are ignored).
  util::IndicatorBitmap bitmap_of(const std::vector<util::Epc>& subset) const;

  /// EPCs corresponding to the set bits of `bitmap`, whose size must match
  /// the scene (throws std::invalid_argument otherwise, like
  /// candidates_for).
  std::vector<util::Epc> epcs_of(const util::IndicatorBitmap& bitmap) const;

  /// Enumerates candidate bitmasks anchored at the EPCs of `targets`
  /// (rows covering at least one target; identical-coverage rows merged,
  /// keeping the first bitmask seen — Fig. 10's table preprocessing).
  /// Rows come in (target ascending, pointer, length) order.  For each
  /// (target, pointer) the sweep starts from all tags and ANDs in one
  /// per-bit-position tag set per mask bit, stopping once coverage
  /// collapses to a single tag: longer masks have identical coverage.
  ///
  /// `pool` shards the sweep into one contiguous target chunk per
  /// executor, each deduplicated locally, then merges the chunks in order
  /// keeping the first coverage seen; a null pool is a single chunk.  The
  /// output — rows, order, bitmasks, counts — is identical at any thread
  /// count.
  std::vector<BitmaskCandidate> candidates_for(
      const util::IndicatorBitmap& targets,
      util::TaskPool* pool = nullptr) const;

 private:
  std::vector<util::Epc> scene_;
  std::unordered_map<util::Epc, std::size_t> position_;
  std::size_t epc_bits_ = 0;
  /// ones_[b]: tags whose EPC bit b is 1; zeros_[b]: complement.
  std::vector<util::IndicatorBitmap> ones_;
  std::vector<util::IndicatorBitmap> zeros_;
};

}  // namespace tagwatch::core
