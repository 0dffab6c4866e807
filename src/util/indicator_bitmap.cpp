#include "util/indicator_bitmap.hpp"

#include <bit>
#include <stdexcept>

#include "util/simd.hpp"

namespace tagwatch::util {

IndicatorBitmap::IndicatorBitmap(std::size_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

bool IndicatorBitmap::test(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("IndicatorBitmap::test");
  return ((words_[i / 64] >> (i % 64)) & 1u) != 0;
}

void IndicatorBitmap::set(std::size_t i, bool value) {
  if (i >= size_) throw std::out_of_range("IndicatorBitmap::set");
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  const bool was_set = (words_[i / 64] & mask) != 0;
  if (value) {
    words_[i / 64] |= mask;
    if (!was_set) ++count_;
  } else {
    words_[i / 64] &= ~mask;
    if (was_set) --count_;
  }
}

void IndicatorBitmap::clear() {
  for (auto& w : words_) w = 0;
  count_ = 0;
}

void IndicatorBitmap::fill() {
  if (words_.empty()) return;
  for (auto& w : words_) w = ~std::uint64_t{0};
  // Keep the bits past size_ clear so word-wise hash/==/and_count never
  // see tail garbage.
  const std::size_t tail = size_ % 64;
  if (tail != 0) {
    words_.back() = (std::uint64_t{1} << tail) - 1;
  }
  count_ = size_;
}

std::size_t IndicatorBitmap::and_count(const IndicatorBitmap& other) const {
  check_same_size(other);
  return simd::and_popcount(words_.data(), other.words_.data(),
                            words_.size());
}

void IndicatorBitmap::and_with(const IndicatorBitmap& other) {
  check_same_size(other);
  count_ = simd::and_inplace_popcount(words_.data(), other.words_.data(),
                                      words_.size());
}

void IndicatorBitmap::subtract(const IndicatorBitmap& other) {
  check_same_size(other);
  count_ -= simd::andnot_inplace_removed(words_.data(), other.words_.data(),
                                         words_.size());
}

void IndicatorBitmap::merge(const IndicatorBitmap& other) {
  check_same_size(other);
  count_ += simd::or_inplace_added(words_.data(), other.words_.data(),
                                   words_.size());
}

std::string IndicatorBitmap::to_string() const {
  std::string out(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (test(i)) out[i] = '1';
  }
  return out;
}

std::size_t IndicatorBitmap::hash() const noexcept {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(size_);
  for (const auto w : words_) mix(w);
  return static_cast<std::size_t>(h);
}

void IndicatorBitmap::check_same_size(const IndicatorBitmap& other) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("IndicatorBitmap: size mismatch");
  }
}

}  // namespace tagwatch::util
