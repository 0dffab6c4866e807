// Zero-allocation check for EPC values of up to 128 bits.
//
// Replaces the global operator new/delete with counting versions, then
// asserts that copying, assigning, hashing, comparing, sorting and matching
// 96- and 128-bit EPCs (and copying the readings that carry them) never
// reach the heap.  A standalone executable rather than a gtest case,
// because the replacement is global and gtest itself allocates.
//
// Usage: test_bitstring_no_alloc   (exit 0 = pass, 1 = a check allocated)
#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "rf/measurement.hpp"
#include "util/bitstring.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t a) {
  return counted_alloc(size, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return counted_alloc(size, static_cast<std::size_t>(a));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using tagwatch::rf::TagReading;
using tagwatch::util::BitString;
using tagwatch::util::Epc;

// Results are folded into this so no measured operation can be dropped.
volatile std::size_t g_sink = 0;

int g_failures = 0;

/// Runs `op` and reports how many allocations it made.
template <typename Op>
void expect_no_alloc(const char* name, Op&& op) {
  const std::size_t before = g_allocations.load();
  op();
  const std::size_t made = g_allocations.load() - before;
  if (made != 0) {
    std::printf("FAIL %-44s %zu allocations\n", name, made);
    ++g_failures;
  } else {
    std::printf("ok   %s\n", name);
  }
}

std::vector<Epc> random_epcs(std::size_t n, std::size_t bits,
                             std::uint64_t seed) {
  tagwatch::util::Rng rng(seed);
  std::vector<Epc> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Epc::random(rng, bits));
  return out;
}

void check_width(std::size_t bits) {
  constexpr std::size_t kN = 1000;
  std::printf("-- %zu-bit EPCs\n", bits);
  const std::vector<Epc> src = random_epcs(kN, bits, 7 + bits);
  std::vector<Epc> copies;
  copies.reserve(kN);
  std::vector<Epc> sorted = src;
  std::vector<TagReading> readings(kN);
  for (std::size_t i = 0; i < kN; ++i) readings[i].epc = src[i];
  std::vector<TagReading> reading_copies;
  reading_copies.reserve(kN);
  const BitString mask = src[0].bits().substring(bits / 4, bits / 2);

  expect_no_alloc("Epc copy-construct", [&] {
    for (const Epc& e : src) copies.push_back(e);
  });
  expect_no_alloc("Epc copy-assign", [&] {
    for (std::size_t i = 0; i < kN; ++i) copies[i] = src[kN - 1 - i];
  });
  expect_no_alloc("Epc move-construct and move-assign", [&] {
    for (std::size_t i = 0; i + 1 < kN; ++i) {
      Epc moved(std::move(copies[i]));
      copies[i + 1] = std::move(moved);
    }
  });
  expect_no_alloc("Epc hash", [&] {
    std::size_t h = 0;
    for (const Epc& e : src) h ^= std::hash<Epc>{}(e);
    g_sink = h;
  });
  expect_no_alloc("Epc compare (== and <=>)", [&] {
    std::size_t less = 0;
    for (std::size_t i = 0; i + 1 < kN; ++i) {
      less += (src[i] <=> src[i + 1]) < 0 ? 1u : 0u;
      less += src[i] == src[i + 1] ? 1u : 0u;
    }
    g_sink = less;
  });
  expect_no_alloc("std::sort of 1,000 EPCs", [&] {
    std::sort(sorted.begin(), sorted.end());
    g_sink = sorted.front().hash();
  });
  expect_no_alloc("rf::TagReading copy", [&] {
    for (const TagReading& r : readings) reading_copies.push_back(r);
    TagReading one = readings[kN / 2];
    g_sink = one.epc.hash();
  });
  expect_no_alloc("BitString::matches", [&] {
    std::size_t hits = 0;
    for (const Epc& e : src) {
      for (std::size_t p = 0; p + mask.size() <= bits; p += 5) {
        hits += e.matches(p, mask) ? 1u : 0u;
      }
    }
    g_sink = hits;
  });
  expect_no_alloc("BitString construct and substring", [&] {
    const BitString zero(bits);
    const BitString sub = src[1].bits().substring(3, bits - 3);
    g_sink = zero.hash() ^ sub.hash();
  });
}

}  // namespace

int main() {
  // The counter must see allocations, or every check passes vacuously.
  const std::size_t before = g_allocations.load();
  const BitString heap(200);
  g_sink = heap.hash();
  if (g_allocations.load() - before != 1) {
    std::printf("FAIL counting operator new is not in effect\n");
    return 1;
  }
  check_width(Epc::kBits96);
  check_width(Epc::kBits128);
  std::printf("%s\n", g_failures == 0 ? "PASS" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
