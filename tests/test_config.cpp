#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace tagwatch::util {
namespace {

TEST(KeyValueConfig, ParsesBasics) {
  const auto cfg = KeyValueConfig::parse(
      "# Tagwatch targets\n"
      "phase2_seconds = 5\n"
      "xi=3.0\n"
      "  detector = phase-mog  \n"
      "\n"
      "verbose = true\n");
  EXPECT_EQ(cfg.size(), 4u);
  EXPECT_EQ(cfg.get_or("detector", ""), "phase-mog");
  EXPECT_DOUBLE_EQ(cfg.get_double_or("xi", 0.0), 3.0);
  EXPECT_EQ(cfg.get_int_or("phase2_seconds", 0), 5);
  EXPECT_TRUE(cfg.get_bool_or("verbose", false));
}

TEST(KeyValueConfig, MissingKeysFallBack) {
  const auto cfg = KeyValueConfig::parse("a = 1\n");
  EXPECT_FALSE(cfg.get("b").has_value());
  EXPECT_EQ(cfg.get_or("b", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double_or("b", 2.5), 2.5);
  EXPECT_FALSE(cfg.get_bool_or("b", false));
}

TEST(KeyValueConfig, MalformedLineThrows) {
  EXPECT_THROW(KeyValueConfig::parse("key_without_equals\n"),
               std::invalid_argument);
}

TEST(KeyValueConfig, BadBooleanThrows) {
  const auto cfg = KeyValueConfig::parse("flag = maybe\n");
  EXPECT_THROW(cfg.get_bool_or("flag", false), std::invalid_argument);
}

TEST(KeyValueConfig, NumericGettersRejectTrailingCharacters) {
  // std::stoll/std::stod stop at the first bad character; the getters
  // must not, or "5s" silently reads as 5 and "2.5" as the integer 2.
  const auto cfg = KeyValueConfig::parse(
      "seconds = 5s\nratio = 2.5\nsci = 1e3\nspeed = 0.5 m/s\nempty =\n"
      "big = 99999999999999999999\n");
  EXPECT_THROW(cfg.get_int_or("seconds", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int_or("big", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int_or("ratio", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int_or("sci", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int_or("empty", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double_or("seconds", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double_or("speed", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double_or("empty", 0.0), std::invalid_argument);
  // Whole values still parse.
  EXPECT_DOUBLE_EQ(cfg.get_double_or("ratio", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("sci", 0.0), 1000.0);
  const auto ok = KeyValueConfig::parse("n = -12\nx = .25\n");
  EXPECT_EQ(ok.get_int_or("n", 0), -12);
  EXPECT_DOUBLE_EQ(ok.get_double_or("x", 0.0), 0.25);
}

TEST(KeyValueConfig, DoubleGetterRejectsNonFiniteValues) {
  // NaN compares false against any bound, so it would pass every range
  // check downstream; infinities are never a meaningful setting either.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-infinity", "1e999"}) {
    SCOPED_TRACE(bad);
    const auto cfg = KeyValueConfig::parse(std::string("v = ") + bad + "\n");
    EXPECT_THROW(cfg.get_double_or("v", 0.0), std::invalid_argument);
  }
}

TEST(KeyValueConfig, BadNumberMessageNamesTheKey) {
  const auto cfg = KeyValueConfig::parse("mover_speed = nan\ntags = 5s\n");
  auto error_of = [](auto read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of([&] { (void)cfg.get_double_or("mover_speed", 0.0); })
                .find("'mover_speed'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { (void)cfg.get_int_or("tags", 0); }).find("'tags'"),
            std::string::npos);
}

TEST(KeyValueConfig, ValueMayContainEquals) {
  const auto cfg = KeyValueConfig::parse("expr = a=b\n");
  EXPECT_EQ(cfg.get_or("expr", ""), "a=b");
}

TEST(KeyValueConfig, ListParsing) {
  const auto cfg = KeyValueConfig::parse("items = alpha, beta ,gamma,\n");
  const auto items = cfg.get_list("items");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "alpha");
  EXPECT_EQ(items[1], "beta");
  EXPECT_EQ(items[2], "gamma");
  EXPECT_TRUE(cfg.get_list("absent").empty());
}

TEST(KeyValueConfig, EpcListIsThePinnedTargetFormat) {
  // §5: users pin "concerned" tags by EPC in a configuration file.
  const auto cfg = KeyValueConfig::parse(
      "pinned_targets = 300833B2DDD9014000000001, 300833B2DDD9014000000002\n");
  const auto epcs = cfg.get_epc_list("pinned_targets");
  ASSERT_EQ(epcs.size(), 2u);
  EXPECT_EQ(epcs[0].to_hex(), "300833B2DDD9014000000001");
  EXPECT_EQ(epcs[0].size(), 96u);
}

TEST(KeyValueConfig, LoadsFromFile) {
  const std::string path = testing::TempDir() + "/tagwatch_cfg_test.conf";
  {
    std::ofstream out(path);
    out << "alpha = 0.001\nk = 8\n";
  }
  const auto cfg = KeyValueConfig::load(path);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("alpha", 0.0), 0.001);
  EXPECT_EQ(cfg.get_int_or("k", 0), 8);
  std::remove(path.c_str());
}

TEST(KeyValueConfig, LoadMissingFileThrows) {
  EXPECT_THROW(KeyValueConfig::load("/nonexistent/path/x.conf"),
               std::runtime_error);
}

}  // namespace
}  // namespace tagwatch::util
