// The util::simd word kernels against an independent per-bit reference.
// Every kernel is exercised at adversarial widths — zero words, one word,
// ragged tails, all-ones, all-zeros, random — and the in-place kernels
// additionally with dst aliasing src (or head) exactly.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace tagwatch::util::simd {
namespace {

constexpr std::size_t kWidths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                   15, 16, 17, 31, 32, 33, 100, 257};

enum class Fill { kZeros, kOnes, kRandom };
constexpr Fill kFills[] = {Fill::kZeros, Fill::kOnes, Fill::kRandom};

using Words = std::vector<std::uint64_t>;

Words make_words(std::size_t n, Fill fill, Rng& rng) {
  Words w(n);
  for (auto& v : w) {
    switch (fill) {
      case Fill::kZeros: v = 0; break;
      case Fill::kOnes: v = ~std::uint64_t{0}; break;
      case Fill::kRandom:
        // Mix sparse and dense words so the early-zero cuts get exercised.
        v = rng.uniform_u64(0, 3) == 0
                ? 0
                : rng.uniform_u64(0, std::numeric_limits<std::uint64_t>::max());
        break;
    }
  }
  return w;
}

// ------------------------------------------------------ per-bit reference
// Bit-at-a-time with no popcount and no word-wide logic, so a slip in a
// kernel's word expression cannot be mirrored here.

bool bit(const Words& w, std::size_t i) {
  return ((w[i / 64] >> (i % 64)) & 1u) != 0;
}

void put(Words& w, std::size_t i, bool v) {
  const std::uint64_t m = std::uint64_t{1} << (i % 64);
  w[i / 64] = v ? (w[i / 64] | m) : (w[i / 64] & ~m);
}

std::size_t ref_count(const Words& w) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < w.size() * 64; ++i) {
    if (bit(w, i)) ++c;
  }
  return c;
}

/// out[i] = op(a[i], b[i]) bit by bit.
template <typename Op>
Words ref_zip(const Words& a, const Words& b, Op op) {
  Words out(a.size());
  for (std::size_t i = 0; i < a.size() * 64; ++i) {
    put(out, i, op(bit(a, i), bit(b, i)));
  }
  return out;
}

bool ref_and(bool x, bool y) { return x && y; }
bool ref_andnot(bool x, bool y) { return x && !y; }
bool ref_or(bool x, bool y) { return x || y; }
bool ref_added(bool x, bool y) { return !x && y; }

bool ref_nonzero(const Words& w, std::size_t word) {
  for (std::size_t b = 0; b < 64; ++b) {
    if (bit(w, word * 64 + b)) return true;
  }
  return false;
}

class SimdKernels : public ::testing::Test {
 protected:
  Rng rng_{0x51d0f1d0};
};

TEST_F(SimdKernels, AndPopcount) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto a = make_words(n, fill, rng_);
      const auto b = make_words(n, Fill::kRandom, rng_);
      EXPECT_EQ(and_popcount(a.data(), b.data(), n),
                ref_count(ref_zip(a, b, ref_and)))
          << "n=" << n;
    }
  }
}

// Shared check for the three in-place word kernels: `result` is the
// reference dst after the call and `counted` the reference bit set whose
// size the kernel returns.  Repeats with dst aliasing src exactly.
using InplaceKernel = std::size_t (*)(std::uint64_t*, const std::uint64_t*,
                                      std::size_t) noexcept;
using BitOp = bool (*)(bool, bool);

void check_inplace(InplaceKernel kernel, BitOp result, BitOp counted,
                   Rng& rng) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto dst0 = make_words(n, Fill::kRandom, rng);
      const auto src = make_words(n, fill, rng);
      auto dst = dst0;
      EXPECT_EQ(kernel(dst.data(), src.data(), n),
                ref_count(ref_zip(dst0, src, counted)))
          << "n=" << n;
      EXPECT_EQ(dst, ref_zip(dst0, src, result)) << "n=" << n;

      // Exact aliasing: dst == src is allowed by the contract.
      auto alias = dst0;
      EXPECT_EQ(kernel(alias.data(), alias.data(), n),
                ref_count(ref_zip(dst0, dst0, counted)))
          << "aliased n=" << n;
      EXPECT_EQ(alias, ref_zip(dst0, dst0, result)) << "aliased n=" << n;
    }
  }
}

TEST_F(SimdKernels, AndInplacePopcount) {
  check_inplace(&and_inplace_popcount, ref_and, ref_and, rng_);
}

TEST_F(SimdKernels, AndnotInplaceRemoved) {
  check_inplace(&andnot_inplace_removed, ref_andnot, ref_and, rng_);
}

TEST_F(SimdKernels, OrInplaceAdded) {
  check_inplace(&or_inplace_added, ref_or, ref_added, rng_);
}

TEST_F(SimdKernels, FusedAndColumns) {
  for (const std::size_t n : kWidths) {
    for (std::size_t n_cols = 0; n_cols <= 5; ++n_cols) {
      const auto head = make_words(n, Fill::kRandom, rng_);
      std::vector<Words> cols;
      std::vector<const std::uint64_t*> col_ptrs;
      Words expected = head;
      for (std::size_t c = 0; c < n_cols; ++c) {
        // Include an all-zero column sometimes to hit the early-zero cut.
        cols.push_back(make_words(
            n, c == 2 ? Fill::kZeros : Fill::kRandom, rng_));
        col_ptrs.push_back(cols.back().data());
        expected = ref_zip(expected, cols.back(), ref_and);
      }
      Words dst(n, ~std::uint64_t{0});
      EXPECT_EQ(fused_and_columns(dst.data(), head.data(), col_ptrs.data(),
                                  n_cols, n),
                ref_count(expected))
          << "n=" << n << " cols=" << n_cols;
      EXPECT_EQ(dst, expected) << "n=" << n << " cols=" << n_cols;

      // dst aliasing head is allowed.
      auto alias = head;
      EXPECT_EQ(fused_and_columns(alias.data(), alias.data(), col_ptrs.data(),
                                  n_cols, n),
                ref_count(expected))
          << "aliased n=" << n << " cols=" << n_cols;
      EXPECT_EQ(alias, expected) << "aliased n=" << n << " cols=" << n_cols;
    }
  }
}

TEST_F(SimdKernels, NonzeroIndices) {
  for (const std::size_t n : kWidths) {
    for (const Fill fill : kFills) {
      const auto w = make_words(n, fill, rng_);
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < n; ++i) {
        if (ref_nonzero(w, i)) expected.push_back(i);
      }

      std::vector<std::uint32_t> out(n + 1, ~std::uint32_t{0});
      const std::size_t m = nonzero_indices(w.data(), n, out.data());
      ASSERT_EQ(m, expected.size()) << "n=" << n;
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
          << "n=" << n;
      EXPECT_EQ(out[m], ~std::uint32_t{0}) << "wrote past the count, n=" << n;
    }
  }
}

}  // namespace
}  // namespace tagwatch::util::simd
