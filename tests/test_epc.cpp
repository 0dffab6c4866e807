#include "util/epc.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/rng.hpp"

namespace tagwatch::util {
namespace {

TEST(Epc, DefaultIs96BitZero) {
  Epc e;
  EXPECT_EQ(e.size(), 96u);
  EXPECT_EQ(e.to_hex(), std::string(24, '0'));
}

TEST(Epc, FromSerialEncodesLowBits) {
  const Epc e = Epc::from_serial(0xAB);
  EXPECT_EQ(e.size(), 96u);
  EXPECT_EQ(e.to_hex().substr(22), "AB");
  // High bits are zero.
  EXPECT_EQ(e.to_hex().substr(0, 22), std::string(22, '0'));
}

TEST(Epc, RandomDrawsArePinned) {
  // Scene generators draw EPCs through Epc::random; the same RNG state must
  // keep producing the same EPCs.
  Rng rng(1234);
  EXPECT_EQ(Epc::random(rng).to_hex(), "489AEA99188F0BE157DB49F9");
  EXPECT_EQ(Epc::random(rng).to_hex(), "91D72D198DDAA728EFF46720");
}

TEST(Epc, FromSerialDistinct) {
  EXPECT_NE(Epc::from_serial(1), Epc::from_serial(2));
  EXPECT_EQ(Epc::from_serial(7), Epc::from_serial(7));
}

TEST(Epc, FromHex) {
  const Epc e = Epc::from_hex("300833B2DDD9014000000001");
  EXPECT_EQ(e.size(), 96u);
  EXPECT_EQ(e.to_hex(), "300833B2DDD9014000000001");
}

TEST(Epc, RandomIsLengthCorrectAndVaried) {
  Rng rng(1);
  std::unordered_set<Epc> seen;
  for (int i = 0; i < 100; ++i) {
    const Epc e = Epc::random(rng);
    EXPECT_EQ(e.size(), 96u);
    seen.insert(e);
  }
  // 100 draws from a 96-bit space collide with negligible probability.
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Epc, Random128) {
  Rng rng(2);
  EXPECT_EQ(Epc::random(rng, Epc::kBits128).size(), 128u);
}

TEST(Epc, MatchesDelegatesToBits) {
  const Epc e = Epc::from_serial(0b1011, 8);  // "00001011"
  EXPECT_TRUE(e.matches(4, BitString::from_binary("1011")));
  EXPECT_FALSE(e.matches(0, BitString::from_binary("1011")));
}

TEST(Epc, OrderingIsStableAndTotal) {
  Rng rng(3);
  std::vector<Epc> epcs;
  for (int i = 0; i < 50; ++i) epcs.push_back(Epc::random(rng));
  std::sort(epcs.begin(), epcs.end());
  for (std::size_t i = 1; i < epcs.size(); ++i) {
    EXPECT_LE(epcs[i - 1], epcs[i]);
  }
}

TEST(Epc, UsableAsUnorderedMapKey) {
  std::unordered_set<Epc> set;
  set.insert(Epc::from_serial(1));
  set.insert(Epc::from_serial(1));
  set.insert(Epc::from_serial(2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(Epc::from_serial(2)));
}

}  // namespace
}  // namespace tagwatch::util
