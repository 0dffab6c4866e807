#include "util/simd.hpp"

#include <bit>

namespace tagwatch::util::simd {

std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

std::size_t and_inplace_popcount(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = dst[i] & src[i];
    dst[i] = v;
    total += static_cast<std::size_t>(std::popcount(v));
  }
  return total;
}

std::size_t andnot_inplace_removed(std::uint64_t* dst,
                                   const std::uint64_t* src,
                                   std::size_t n) noexcept {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    removed += static_cast<std::size_t>(std::popcount(dst[i] & src[i]));
    dst[i] &= ~src[i];
  }
  return removed;
}

std::size_t or_inplace_added(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept {
  std::size_t added = 0;
  for (std::size_t i = 0; i < n; ++i) {
    added += static_cast<std::size_t>(std::popcount(~dst[i] & src[i]));
    dst[i] |= src[i];
  }
  return added;
}

std::size_t fused_and_columns(std::uint64_t* dst, const std::uint64_t* head,
                              const std::uint64_t* const* cols,
                              std::size_t n_cols,
                              std::size_t n_words) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_words; ++i) {
    std::uint64_t v = head[i];
    // Most words die within a few columns; once v hits zero the remaining
    // ANDs cannot revive it, so stop early.
    for (std::size_t c = 0; c < n_cols && v != 0; ++c) v &= cols[c][i];
    dst[i] = v;
    total += static_cast<std::size_t>(std::popcount(v));
  }
  return total;
}

std::size_t nonzero_indices(const std::uint64_t* w, std::size_t n,
                            std::uint32_t* out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] != 0) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

}  // namespace tagwatch::util::simd
