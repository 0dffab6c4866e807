#include "util/indicator_bitmap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tagwatch::util {
namespace {

TEST(IndicatorBitmap, StartsEmpty) {
  IndicatorBitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(IndicatorBitmap, SetTestClear) {
  IndicatorBitmap b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.set(63, false);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(IndicatorBitmap, BoundsChecked) {
  IndicatorBitmap b(8);
  EXPECT_THROW(b.test(8), std::out_of_range);
  EXPECT_THROW(b.set(8), std::out_of_range);
}

TEST(IndicatorBitmap, AndCountMatchesPaperGainTerm) {
  // Fig. 10: V = [0,1,1,1], V1 = [1,1,1,0] → |V1 & V| = 2.
  IndicatorBitmap v(4), v1(4);
  v.set(1);
  v.set(2);
  v.set(3);
  v1.set(0);
  v1.set(1);
  v1.set(2);
  EXPECT_EQ(v1.and_count(v), 2u);
  EXPECT_EQ(v.and_count(v1), 2u);
}

TEST(IndicatorBitmap, SubtractImplementsStep3Update) {
  // V ← V − (V & V3): Fig. 10's input-bitmap update.
  IndicatorBitmap v(4), v3(4);
  v.set(1);
  v.set(2);
  v.set(3);
  v3.set(1);
  v3.set(2);
  v.subtract(v3);
  EXPECT_FALSE(v.test(1));
  EXPECT_FALSE(v.test(2));
  EXPECT_TRUE(v.test(3));
  EXPECT_EQ(v.count(), 1u);
}

TEST(IndicatorBitmap, MergeIsUnion) {
  IndicatorBitmap a(10), b(10);
  a.set(1);
  b.set(1);
  b.set(7);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(7));
}

TEST(IndicatorBitmap, SizeMismatchThrows) {
  IndicatorBitmap a(10), b(11);
  EXPECT_THROW(a.and_count(b), std::invalid_argument);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(IndicatorBitmap, EqualityAndHashForDedup) {
  IndicatorBitmap a(200), b(200), c(200);
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const auto idx = static_cast<std::size_t>(rng.below(200));
    a.set(idx);
    b.set(idx);
    c.set((idx + 1) % 200);
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<IndicatorBitmap> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(IndicatorBitmap, ToStringRendersTagOrder) {
  IndicatorBitmap b(4);
  b.set(1);
  b.set(3);
  EXPECT_EQ(b.to_string(), "0101");
}

TEST(IndicatorBitmap, FillSetsEveryBitAndMasksTheTail) {
  // 70 bits spans two words with a partial tail; fill() must not set the
  // 58 tail bits, or word-wise ==/hash/and_count would see garbage.
  IndicatorBitmap filled(70);
  filled.fill();
  EXPECT_EQ(filled.count(), 70u);
  IndicatorBitmap reference(70);
  for (std::size_t i = 0; i < 70; ++i) reference.set(i);
  EXPECT_EQ(filled, reference);
  EXPECT_EQ(filled.hash(), reference.hash());
  EXPECT_EQ(filled.and_count(reference), 70u);

  // Word-aligned size: no tail to mask.
  IndicatorBitmap aligned(128);
  aligned.fill();
  EXPECT_EQ(aligned.count(), 128u);
  EXPECT_TRUE(aligned.test(127));

  IndicatorBitmap empty(0);
  empty.fill();
  EXPECT_EQ(empty.count(), 0u);
}

TEST(IndicatorBitmap, AndWithIsInPlaceIntersection) {
  IndicatorBitmap a(130), b(130);
  a.set(0);
  a.set(64);
  a.set(129);
  b.set(64);
  b.set(129);
  b.set(100);
  a.and_with(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.test(0));
  EXPECT_TRUE(a.test(64));
  EXPECT_TRUE(a.test(129));
  IndicatorBitmap c(131);
  EXPECT_THROW(a.and_with(c), std::invalid_argument);
}

TEST(IndicatorBitmap, CachedCountStaysExactThroughMutations) {
  // The O(1) cached popcount must agree with a per-bit reference across a
  // random mix of every mutator.
  Rng rng(14);
  const std::size_t n = 200;
  IndicatorBitmap b(n);
  std::vector<bool> reference(n, false);
  const auto reference_count = [&reference] {
    std::size_t c = 0;
    for (const bool bit : reference) c += bit ? 1u : 0u;
    return c;
  };
  for (int step = 0; step < 200; ++step) {
    const auto op = rng.below(5);
    if (op == 0) {
      const auto i = static_cast<std::size_t>(rng.below(n));
      const bool value = rng.chance(0.5);
      b.set(i, value);
      reference[i] = value;
    } else {
      IndicatorBitmap other(n);
      std::vector<bool> other_reference(n, false);
      for (int k = 0; k < 40; ++k) {
        const auto i = static_cast<std::size_t>(rng.below(n));
        other.set(i);
        other_reference[i] = true;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (op == 1) reference[i] = reference[i] && other_reference[i];
        if (op == 2) reference[i] = reference[i] && !other_reference[i];
        if (op == 3) reference[i] = reference[i] || other_reference[i];
        if (op == 4) reference[i] = true;
      }
      if (op == 1) b.and_with(other);
      if (op == 2) b.subtract(other);
      if (op == 3) b.merge(other);
      if (op == 4) b.fill();
    }
    ASSERT_EQ(b.count(), reference_count()) << "step " << step;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(b.test(i), reference[i]) << "step " << step << " bit " << i;
    }
  }
}

TEST(IndicatorBitmap, CountRandomizedAgainstReference) {
  Rng rng(13);
  IndicatorBitmap b(513);
  std::unordered_set<std::size_t> reference;
  for (int i = 0; i < 300; ++i) {
    const auto idx = static_cast<std::size_t>(rng.below(513));
    b.set(idx);
    reference.insert(idx);
  }
  EXPECT_EQ(b.count(), reference.size());
}

}  // namespace
}  // namespace tagwatch::util
