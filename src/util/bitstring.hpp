// Arbitrary-length bit strings with Gen2-style MSB-first bit addressing.
//
// EPC Gen2 addresses tag memory by bit: `Pointer` is the index of the first
// bit (0 = most significant bit of the bank) and `Length` counts bits.  Both
// tag EPCs and Select masks are therefore modeled as BitString values.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tagwatch::util {

/// A fixed-length sequence of bits with MSB-first addressing (bit 0 is the
/// most significant bit), mirroring EPC Gen2 memory-bank addressing.
///
/// BitString is a regular value type: copyable, comparable, hashable.
/// Strings of up to 128 bits (every 96- and 128-bit EPC and every Select
/// mask the planner emits) live in two inline words, so copying, comparing
/// and hashing them never touches the heap; longer strings (Gen2 allows
/// EPCs up to 496 bits) own a heap block.
class BitString {
 public:
  /// Creates an empty (zero-length) bit string.
  BitString() noexcept = default;

  /// Creates a bit string of `length` bits, all zero.
  explicit BitString(std::size_t length) : size_(length) {
    if (on_heap()) heap_ = allocate(word_count(length));
  }

  /// Creates a bit string from the low `length` bits of `value`,
  /// most-significant-first (so BitString(0b101, 3) == "101").
  BitString(std::uint64_t value, std::size_t length);

  BitString(const BitString& other) : size_(other.size_) {
    if (other.on_heap()) {
      heap_ = clone(other);
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
  }

  BitString(BitString&& other) noexcept : size_(other.size_) {
    take(other);
  }

  BitString& operator=(const BitString& other) {
    if (this != &other) *this = BitString(other);
    return *this;
  }

  BitString& operator=(BitString&& other) noexcept {
    if (this != &other) {
      if (on_heap()) delete[] heap_;
      size_ = other.size_;
      take(other);
    }
    return *this;
  }

  ~BitString() {
    if (on_heap()) delete[] heap_;
  }

  /// Parses a string of '0'/'1' characters, e.g. "001110".
  /// Throws std::invalid_argument on any other character.
  static BitString from_binary(std::string_view bits);

  /// Parses a hexadecimal string (no prefix), 4 bits per digit,
  /// e.g. "3000AB" -> 24 bits. Throws std::invalid_argument on bad digits.
  static BitString from_hex(std::string_view hex);

  /// Number of bits.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Returns bit `i` (0 = MSB). Throws std::out_of_range if i >= size().
  bool bit(std::size_t i) const {
    if (i >= size_) throw_out_of_range("BitString::bit");
    return ((words()[i / 64] >> (63 - i % 64)) & 1u) != 0;
  }

  /// Sets bit `i` (0 = MSB). Throws std::out_of_range if i >= size().
  void set_bit(std::size_t i, bool value) {
    if (i >= size_) throw_out_of_range("BitString::set_bit");
    const std::uint64_t mask = std::uint64_t{1} << (63 - i % 64);
    std::uint64_t& w = words()[i / 64];
    w = value ? (w | mask) : (w & ~mask);
  }

  /// Extracts `length` bits starting at bit `pointer` as a new BitString.
  /// Precondition: pointer + length <= size().
  BitString substring(std::size_t pointer, std::size_t length) const;

  /// True iff the `mask.size()` bits of `*this` starting at `pointer`
  /// exist and equal `mask` — the Gen2 Select match rule.
  bool matches(std::size_t pointer, const BitString& mask) const noexcept;

  /// Interprets the whole string as an unsigned big-endian integer.
  /// Precondition: size() <= 64.
  std::uint64_t to_uint64() const;

  /// Renders as '0'/'1' characters, MSB first.
  std::string to_binary_string() const;

  /// Renders as uppercase hex; size() must be a multiple of 4.
  std::string to_hex_string() const;

  friend bool operator==(const BitString& a, const BitString& b) noexcept {
    if (a.size_ != b.size_) return false;
    const std::uint64_t* x = a.words();
    const std::uint64_t* y = b.words();
    for (std::size_t j = 0; j < word_count(a.size_); ++j) {
      if (x[j] != y[j]) return false;
    }
    return true;
  }

  /// MSB-first lexicographic comparison over the common prefix; on a tie
  /// the shorter string orders first.
  std::strong_ordering operator<=>(const BitString& other) const noexcept {
    const std::size_t common = size_ < other.size_ ? size_ : other.size_;
    const std::uint64_t* a = words();
    const std::uint64_t* b = other.words();
    const std::size_t full = common / 64;
    for (std::size_t j = 0; j < full; ++j) {
      if (a[j] != b[j]) return a[j] <=> b[j];
    }
    if (common % 64 != 0) {
      const std::uint64_t keep = ~std::uint64_t{0} << (64 - common % 64);
      const std::uint64_t x = a[full] & keep;
      const std::uint64_t y = b[full] & keep;
      if (x != y) return x <=> y;
    }
    return size_ <=> other.size_;
  }

  /// FNV-1a style hash over the length, then each payload word.
  std::size_t hash() const noexcept {
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(size_);
    const std::uint64_t* w = words();
    for (std::size_t j = 0; j < word_count(size_); ++j) mix(w[j]);
    return static_cast<std::size_t>(h);
  }

 private:
  static constexpr std::size_t kInlineWords = 2;

  static constexpr std::size_t word_count(std::size_t bits) noexcept {
    return (bits + 63) / 64;
  }
  static std::uint64_t* allocate(std::size_t words);
  static std::uint64_t* clone(const BitString& other);
  [[noreturn]] static void throw_out_of_range(const char* what);

  bool on_heap() const noexcept { return size_ > 64 * kInlineWords; }
  const std::uint64_t* words() const noexcept {
    return on_heap() ? heap_ : inline_;
  }
  std::uint64_t* words() noexcept { return on_heap() ? heap_ : inline_; }

  /// Adopts `other`'s payload (size_ already copied) and leaves `other`
  /// empty if it owned a heap block.
  void take(BitString& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      other.size_ = 0;
      other.inline_[0] = 0;
      other.inline_[1] = 0;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
  }

  std::size_t size_ = 0;
  // Bit i lives in word i / 64, at bit position (63 - i % 64): word 0 holds
  // the most significant 64 bits, left-aligned.  Bits past size_ are always
  // zero, so == and hash() can read whole words.
  union {
    std::uint64_t inline_[kInlineWords] = {0, 0};
    std::uint64_t* heap_;  // word_count(size_) words when size_ > 128
  };
};

static_assert(sizeof(BitString) <= 24, "BitString must stay three words");

}  // namespace tagwatch::util

template <>
struct std::hash<tagwatch::util::BitString> {
  std::size_t operator()(const tagwatch::util::BitString& b) const noexcept {
    return b.hash();
  }
};
