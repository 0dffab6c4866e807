#include "util/bitstring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tagwatch::util {
namespace {

TEST(BitString, DefaultIsEmpty) {
  BitString b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
}

TEST(BitString, ZeroInitialized) {
  BitString b(130);  // spans three words
  EXPECT_EQ(b.size(), 130u);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_FALSE(b.bit(i)) << "bit " << i;
  }
}

TEST(BitString, FromValueMsbFirst) {
  const BitString b(0b101, 3);
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(2));
  EXPECT_EQ(b.to_binary_string(), "101");
}

TEST(BitString, FromValueRejectsOver64) {
  EXPECT_THROW(BitString(1u, 65), std::invalid_argument);
}

TEST(BitString, SetAndGetAcrossWordBoundary) {
  BitString b(128);
  b.set_bit(63, true);
  b.set_bit(64, true);
  b.set_bit(127, true);
  EXPECT_TRUE(b.bit(63));
  EXPECT_TRUE(b.bit(64));
  EXPECT_TRUE(b.bit(127));
  EXPECT_FALSE(b.bit(62));
  EXPECT_FALSE(b.bit(65));
  b.set_bit(64, false);
  EXPECT_FALSE(b.bit(64));
}

TEST(BitString, BoundsChecked) {
  BitString b(8);
  EXPECT_THROW(b.bit(8), std::out_of_range);
  EXPECT_THROW(b.set_bit(8, true), std::out_of_range);
}

TEST(BitString, FromBinaryRoundTrip) {
  const std::string pattern = "0011101011110000101";
  const BitString b = BitString::from_binary(pattern);
  EXPECT_EQ(b.size(), pattern.size());
  EXPECT_EQ(b.to_binary_string(), pattern);
}

TEST(BitString, FromBinaryRejectsGarbage) {
  EXPECT_THROW(BitString::from_binary("01x0"), std::invalid_argument);
}

TEST(BitString, FromHexRoundTrip) {
  const BitString b = BitString::from_hex("3000AB");
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(b.to_hex_string(), "3000AB");
  EXPECT_EQ(b.to_binary_string(), "001100000000000010101011");
}

TEST(BitString, FromHexLowercase) {
  EXPECT_EQ(BitString::from_hex("ab").to_hex_string(), "AB");
}

TEST(BitString, FromHexRejectsGarbage) {
  EXPECT_THROW(BitString::from_hex("0G"), std::invalid_argument);
}

TEST(BitString, ToHexRequiresNibbleAlignment) {
  EXPECT_THROW(BitString(5).to_hex_string(), std::logic_error);
}

TEST(BitString, SubstringExtractsGen2Style) {
  // Paper Fig. 9: EPC 001110, mask "10" at pointer 4 should be extracted.
  const BitString epc = BitString::from_binary("001110");
  EXPECT_EQ(epc.substring(3, 2).to_binary_string(), "11");
  EXPECT_EQ(epc.substring(0, 6).to_binary_string(), "001110");
  EXPECT_THROW(epc.substring(5, 2), std::out_of_range);
}

TEST(BitString, MatchesImplementsSelectRule) {
  const BitString epc = BitString::from_binary("001110");
  EXPECT_TRUE(epc.matches(2, BitString::from_binary("11")));
  EXPECT_FALSE(epc.matches(0, BitString::from_binary("11")));
  // Out-of-range mask never matches.
  EXPECT_FALSE(epc.matches(5, BitString::from_binary("10")));
  // Empty mask matches everywhere in range.
  EXPECT_TRUE(epc.matches(0, BitString()));
}

TEST(BitString, ToUint64) {
  EXPECT_EQ(BitString::from_binary("101100").to_uint64(), 0b101100u);
  EXPECT_EQ(BitString(64).to_uint64(), 0u);
  EXPECT_THROW(BitString(65).to_uint64(), std::logic_error);
}

TEST(BitString, EqualityAndOrdering) {
  const BitString a = BitString::from_binary("0011");
  const BitString b = BitString::from_binary("0011");
  const BitString c = BitString::from_binary("0100");
  const BitString prefix = BitString::from_binary("001");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_LT(prefix, a);  // prefix orders before its extension
}

TEST(BitString, HashDistinguishesSizeAndContent) {
  EXPECT_NE(BitString(3).hash(), BitString(4).hash());
  EXPECT_NE(BitString::from_binary("01").hash(),
            BitString::from_binary("10").hash());
  EXPECT_EQ(BitString::from_binary("0110").hash(),
            BitString::from_binary("0110").hash());
}

// --- Reference model -------------------------------------------------------
//
// Every BitString below is checked against its '0'/'1' std::string: string
// comparison is exactly the BitString order (MSB-first, then shorter
// first), and Select matching is a substring compare.  The lengths straddle
// the 64-bit word and the 128-bit inline/heap boundaries.

constexpr std::size_t kModelLengths[] = {0,   1,   63,  64,  65, 96,
                                         127, 128, 129, 200, 496};

struct Modeled {
  BitString bits;
  std::string model;
};

std::vector<Modeled> model_corpus() {
  Rng rng(20170813);
  std::vector<Modeled> out;
  for (const std::size_t n : kModelLengths) {
    std::string random(n, '0');
    for (char& c : random) c = rng.chance(0.5) ? '1' : '0';
    std::string last_bit_flipped = random;
    if (n > 0) last_bit_flipped[n - 1] = random[n - 1] == '1' ? '0' : '1';
    for (const std::string& m :
         {std::string(n, '0'), std::string(n, '1'), random, last_bit_flipped}) {
      // Build through set_bit so the bit-level writer is exercised too.
      BitString b(n);
      for (std::size_t i = 0; i < n; ++i) b.set_bit(i, m[i] == '1');
      out.push_back({b, m});
    }
  }
  return out;
}

int sign(std::strong_ordering o) { return o < 0 ? -1 : (o > 0 ? 1 : 0); }
int sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

TEST(BitStringModel, BitsAndRoundTrips) {
  for (const auto& [b, m] : model_corpus()) {
    ASSERT_EQ(b.size(), m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
      ASSERT_EQ(b.bit(i), m[i] == '1') << m.size() << " bits, bit " << i;
    }
    EXPECT_EQ(b.to_binary_string(), m);
    EXPECT_EQ(BitString::from_binary(m), b);
    if (m.size() % 4 == 0) {
      EXPECT_EQ(BitString::from_hex(b.to_hex_string()), b);
    }
    if (m.size() <= 64) {
      const std::uint64_t v = b.to_uint64();
      EXPECT_EQ(BitString(v, m.size()), b);
    }
  }
}

TEST(BitStringModel, OrderingAndEquality) {
  const auto corpus = model_corpus();
  for (const auto& [a, ma] : corpus) {
    for (const auto& [b, mb] : corpus) {
      EXPECT_EQ(sign(a <=> b), sign(ma.compare(mb)))
          << ma.size() << " vs " << mb.size() << " bits";
      EXPECT_EQ(a == b, ma == mb);
      EXPECT_EQ(a.hash() == b.hash(), ma == mb);
    }
  }
}

TEST(BitStringModel, MatchesAtEveryPointer) {
  const auto corpus = model_corpus();
  for (const auto& [epc, me] : corpus) {
    for (const auto& [whole, mw] : corpus) {
      // Masks: each corpus string, plus its short prefixes, so that masks
      // shorter than a word and ending mid-word are covered.
      const std::size_t lens[] = {mw.size(),
                                  std::min<std::size_t>(mw.size(), 7),
                                  std::min<std::size_t>(mw.size(), 70)};
      for (const std::size_t len : lens) {
        const BitString mask = whole.substring(0, len);
        const std::string mm = mw.substr(0, len);
        for (std::size_t p = 0; p <= me.size() + 1; ++p) {
          const bool expected =
              p + len <= me.size() && me.compare(p, len, mm) == 0;
          ASSERT_EQ(epc.matches(p, mask), expected)
              << me.size() << "-bit string, " << len << "-bit mask at " << p;
        }
      }
    }
  }
}

TEST(BitStringModel, MatchesFindsEverySubstring) {
  // A mask cut from the string itself matches at its own pointer.
  for (const auto& [b, m] : model_corpus()) {
    for (std::size_t p = 0; p <= m.size(); ++p) {
      for (const std::size_t n : kModelLengths) {
        if (p + n > m.size()) continue;
        ASSERT_TRUE(b.matches(p, b.substring(p, n))) << p << "+" << n;
      }
    }
  }
}

TEST(BitStringModel, SubstringAtEveryPointer) {
  for (const auto& [b, m] : model_corpus()) {
    for (std::size_t p = 0; p <= m.size(); ++p) {
      for (const std::size_t n : kModelLengths) {
        if (p + n > m.size()) {
          EXPECT_THROW(b.substring(p, n), std::out_of_range);
          continue;
        }
        const BitString sub = b.substring(p, n);
        ASSERT_EQ(sub.to_binary_string(), m.substr(p, n)) << p << "+" << n;
        // Bits past the substring's end must not leak into == or hash().
        ASSERT_EQ(sub, BitString::from_binary(m.substr(p, n)));
        ASSERT_EQ(sub.hash(), BitString::from_binary(m.substr(p, n)).hash());
      }
    }
  }
}

TEST(BitStringModel, CopyMoveAndAssignAcrossStorageBoundary) {
  const auto corpus = model_corpus();
  for (const auto& [a, ma] : corpus) {
    for (const auto& [b, mb] : corpus) {
      BitString copy(a);
      EXPECT_EQ(copy.to_binary_string(), ma);
      copy = b;  // copy-assign, possibly inline <-> heap
      EXPECT_EQ(copy.to_binary_string(), mb);
      BitString moved(std::move(copy));
      EXPECT_EQ(moved.to_binary_string(), mb);
      copy = a;  // a moved-from string is assignable
      EXPECT_EQ(copy.to_binary_string(), ma);
      moved = std::move(copy);  // move-assign over either storage
      EXPECT_EQ(moved.to_binary_string(), ma);
      BitString& self = moved;
      moved = self;
      moved = std::move(self);
      EXPECT_EQ(moved, a);
      // Writes to a copy never reach the original.
      if (!mb.empty()) {
        BitString w(b);
        w.set_bit(mb.size() - 1, mb.back() == '0');
        EXPECT_EQ(b.to_binary_string(), mb);
      }
    }
  }
}

TEST(BitStringModel, HashPinned) {
  // FNV-1a over the length, then each 64-bit word: hash-container order
  // and ParallelAssessor shard routing depend on these exact values.
  EXPECT_EQ(BitString().hash(), 0xaf63bd4c8601b7dfull);
  EXPECT_EQ(BitString::from_binary("1").hash(), 0x882f2207b4e88cc4ull);
  EXPECT_EQ(BitString(64).hash(), 0x090c0807b5a43a2dull);
  EXPECT_EQ(BitString::from_binary(std::string(64, '0') + "1").hash(),
            0x7b025719a126dbccull);
  EXPECT_EQ(BitString(96).hash(), 0xee7c7219090f0517ull);
  EXPECT_EQ(BitString::from_hex("300833B2DDD9014000000001").hash(),
            0x591b2592f119f857ull);
  EXPECT_EQ(BitString::from_hex("E2801160600002054E4A8F3D0123ABCD").hash(),
            0x8e500da2c8307979ull);
  EXPECT_EQ(BitString(128).hash(), 0x2e0a921ae00e8537ull);
  EXPECT_EQ(BitString::from_binary("1" + std::string(128, '0')).hash(),
            0x2a80cea262769fe4ull);
  EXPECT_EQ(BitString(200).hash(), 0xcd5dc90b0b3706a7ull);
  EXPECT_EQ(BitString::from_hex(std::string(124, 'F')).hash(),
            0x94dffc8b2dd34806ull);
}

TEST(BitStringModel, FitsInThreeWords) {
  EXPECT_LE(sizeof(BitString), 24u);
}

}  // namespace
}  // namespace tagwatch::util
