// Indicator bitmaps for the bitmask-selection index table (§5.3, Fig. 10).
//
// One bit per tag in the scene; bit i is set when the associated bitmask
// covers tag i.  The greedy set-cover search needs fast AND-popcount and
// subtraction, so the bitmap packs bits into 64-bit words and every
// mutating operation runs word-parallel.  The population count is cached
// incrementally: each mutator folds the popcount delta of the words it
// touches into the cache, making count() O(1) — the candidate sweep and
// the lazy-greedy heap both query it on every step.  The bulk operations
// run through the util::simd word kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tagwatch::util {

/// Fixed-size bitset over the tags currently in the scene.
class IndicatorBitmap {
 public:
  IndicatorBitmap() = default;

  /// Creates an all-zero bitmap over `size` tags.
  explicit IndicatorBitmap(std::size_t size);

  std::size_t size() const noexcept { return size_; }

  bool test(std::size_t i) const;
  void set(std::size_t i, bool value = true);

  /// Number of 64-bit words backing the bitmap.
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Word `i` of the backing array (tag 64·i is its lowest bit).
  /// Precondition: i < word_count().
  std::uint64_t word(std::size_t i) const noexcept { return words_[i]; }

  /// The backing word array (word_count() words) for bulk readers — lets
  /// hot loops hoist the pointer instead of re-resolving it per word.
  const std::uint64_t* word_data() const noexcept { return words_.data(); }

  /// Clears every bit.
  void clear();

  /// Number of set bits.  O(1): maintained incrementally by every mutator.
  std::size_t count() const noexcept { return count_; }
  bool any() const noexcept { return count_ > 0; }
  bool none() const noexcept { return count_ == 0; }

  /// Sets every bit (the candidate sweep's "start from all tags" state).
  void fill();

  /// Popcount of (*this & other) — the |V_i & V| term of the relative gain
  /// (Eqn. 13).  Precondition: same size.
  std::size_t and_count(const IndicatorBitmap& other) const;

  /// In-place intersection: one pass that ANDs word-by-word and refreshes
  /// the cached popcount — the candidate sweep's mask-extension step.
  /// Precondition: same size.
  void and_with(const IndicatorBitmap& other);

  /// Clears every bit that is set in `other`: V ← V − (V & other), the
  /// input-bitmap update of the greedy search (Step 3).
  void subtract(const IndicatorBitmap& other);

  /// In-place union.  Precondition: same size.
  void merge(const IndicatorBitmap& other);

  friend bool operator==(const IndicatorBitmap&,
                         const IndicatorBitmap&) = default;

  /// Renders as '0'/'1' characters, tag 0 first (diagnostics).
  std::string to_string() const;

  /// FNV-1a over the word array (and the size), for coverage dedup.
  std::size_t hash() const noexcept;

 private:
  void check_same_size(const IndicatorBitmap& other) const;

  std::size_t size_ = 0;
  /// Cached popcount of words_.  Invariant: always exact, so the defaulted
  /// operator== (which compares it alongside words_) stays consistent.
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tagwatch::util

template <>
struct std::hash<tagwatch::util::IndicatorBitmap> {
  std::size_t operator()(
      const tagwatch::util::IndicatorBitmap& b) const noexcept {
    return b.hash();
  }
};
