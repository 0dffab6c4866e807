#include "util/bitstring.hpp"

#include <algorithm>
#include <stdexcept>

namespace tagwatch::util {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// The 64 bits of `w` (an `n`-word left-aligned string) starting at bit
/// `pos`, zero-filled past the last word.  Precondition: pos / 64 < n.
std::uint64_t load_bits(const std::uint64_t* w, std::size_t n,
                        std::size_t pos) noexcept {
  const std::size_t q = pos / 64;
  const std::size_t shift = pos % 64;
  std::uint64_t out = w[q] << shift;
  if (shift != 0 && q + 1 < n) out |= w[q + 1] >> (64 - shift);
  return out;
}

/// Keeps the top `bits % 64` bits of a tail word (all 64 when the string
/// fills its last word).
std::uint64_t tail_mask(std::size_t bits) noexcept {
  const std::size_t tail = bits % 64;
  return tail == 0 ? ~std::uint64_t{0} : ~std::uint64_t{0} << (64 - tail);
}

}  // namespace

std::uint64_t* BitString::allocate(std::size_t words) {
  return new std::uint64_t[words]();
}

std::uint64_t* BitString::clone(const BitString& other) {
  const std::size_t n = word_count(other.size_);
  auto* out = new std::uint64_t[n];
  std::copy_n(other.heap_, n, out);
  return out;
}

void BitString::throw_out_of_range(const char* what) {
  throw std::out_of_range(what);
}

BitString::BitString(std::uint64_t value, std::size_t length)
    : size_(length) {
  if (length > 64) throw std::invalid_argument("BitString(value): length > 64");
  if (length != 0) inline_[0] = value << (64 - length);
}

BitString BitString::from_binary(std::string_view bits) {
  BitString out(bits.size());
  std::uint64_t* w = out.words();
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      w[i / 64] |= std::uint64_t{1} << (63 - i % 64);
    } else if (bits[i] != '0') {
      throw std::invalid_argument("BitString::from_binary: bad character");
    }
  }
  return out;
}

BitString BitString::from_hex(std::string_view hex) {
  BitString out(hex.size() * 4);
  std::uint64_t* w = out.words();
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const int d = hex_digit(hex[i]);
    if (d < 0) throw std::invalid_argument("BitString::from_hex: bad digit");
    // 64 is a multiple of 4, so a digit never straddles two words.
    w[i / 16] |= static_cast<std::uint64_t>(d) << (60 - 4 * (i % 16));
  }
  return out;
}

BitString BitString::substring(std::size_t pointer, std::size_t length) const {
  if (pointer > size_ || length > size_ - pointer) {
    throw std::out_of_range("BitString::substring");
  }
  BitString out(length);
  // Output word j is input bits [pointer + 64j, pointer + 64j + 64); the
  // tail word is masked so no source bit lands past `length`.
  const std::uint64_t* src = words();
  std::uint64_t* dst = out.words();
  const std::size_t n = word_count(length);
  for (std::size_t j = 0; j < n; ++j) {
    dst[j] = load_bits(src, word_count(size_), pointer + 64 * j);
  }
  if (n != 0) dst[n - 1] &= tail_mask(length);
  return out;
}

bool BitString::matches(std::size_t pointer,
                        const BitString& mask) const noexcept {
  if (pointer > size_ || mask.size_ > size_ - pointer) return false;
  const std::uint64_t* src = words();
  const std::uint64_t* m = mask.words();
  const std::size_t n = word_count(mask.size_);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t w = load_bits(src, word_count(size_), pointer + 64 * j);
    if (j + 1 == n) w &= tail_mask(mask.size_);
    if (w != m[j]) return false;
  }
  return true;
}

std::uint64_t BitString::to_uint64() const {
  if (size_ > 64) throw std::logic_error("BitString::to_uint64: size > 64");
  return size_ == 0 ? 0 : inline_[0] >> (64 - size_);
}

std::string BitString::to_binary_string() const {
  std::string out(size_, '0');
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < size_; ++i) {
    if (((w[i / 64] >> (63 - i % 64)) & 1u) != 0) out[i] = '1';
  }
  return out;
}

std::string BitString::to_hex_string() const {
  if (size_ % 4 != 0) {
    throw std::logic_error("BitString::to_hex_string: size not multiple of 4");
  }
  static constexpr char kDigits[] = "0123456789ABCDEF";
  std::string out(size_ / 4, '0');
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = kDigits[(w[i / 16] >> (60 - 4 * (i % 16))) & 0xF];
  }
  return out;
}

}  // namespace tagwatch::util
