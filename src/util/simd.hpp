// Word kernels for the Phase-II planning hot loops.
//
// Portable loops over 64-bit word arrays: pure integer AND/OR/ANDNOT and
// popcount, so every result is exact and independent of the compiler's
// vectorization choices.  The indicator bitmaps and the incremental
// planner share these six kernels instead of each open-coding its own
// word loop; tests/test_simd.cpp checks each one against a per-bit
// reference.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tagwatch::util::simd {

// All pointers are to 64-bit word arrays of length `n` (zero-length is
// valid).  `dst` may alias `src`/`head` exactly (same pointer) or not at
// all; partial overlap is undefined.  No alignment beyond the word's own
// is required.

/// Σ popcount(a[i] & b[i]) without storing — the |V_i ∩ V| gain term.
std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept;

/// dst[i] &= src[i]; returns the popcount of the result — the candidate
/// sweep's mask-extension step.
std::size_t and_inplace_popcount(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t n) noexcept;

/// Returns Σ popcount(dst[i] & src[i]), then dst[i] &= ~src[i] — the
/// remaining-targets subtraction (V ← V − (V ∩ S)).
std::size_t andnot_inplace_removed(std::uint64_t* dst,
                                   const std::uint64_t* src,
                                   std::size_t n) noexcept;

/// Returns Σ popcount(~dst[i] & src[i]), then dst[i] |= src[i] — the
/// covered-union merge.
std::size_t or_inplace_added(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) noexcept;

/// dst[i] = head[i] & cols[0][i] & … & cols[n_cols-1][i]; returns the
/// popcount of dst.  The fused multi-column AND of the incremental
/// planner's coverage materialization.
/// Columns are ANDed in order with an early-zero cut (results identical
/// either way — AND is monotone).  `dst` may alias `head`, never a column.
std::size_t fused_and_columns(std::uint64_t* dst, const std::uint64_t* head,
                              const std::uint64_t* const* cols,
                              std::size_t n_cols, std::size_t n_words) noexcept;

/// Writes the indices of the nonzero words of w[0..n) to `out` (ascending)
/// and returns how many there are.  `out` must hold n entries, and n must
/// fit in 32 bits (the incremental planner's active lists are uint32_t).
std::size_t nonzero_indices(const std::uint64_t* w, std::size_t n,
                            std::uint32_t* out) noexcept;

}  // namespace tagwatch::util::simd
