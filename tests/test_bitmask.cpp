// Tests for bitmask coverage and the candidate index table (§5.2–5.3).
#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bitmask.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {
namespace {

util::Epc epc6(std::string_view bits) {
  return util::Epc(util::BitString::from_binary(bits));
}

TEST(Bitmask, CoversMatchesSubstring) {
  // Paper Fig. 9(a): S1(10₂, 4, 2) covers 001110 and 010010 but also 110110.
  Bitmask s1{4, util::BitString::from_binary("10")};
  EXPECT_TRUE(s1.covers(epc6("001110")));
  EXPECT_TRUE(s1.covers(epc6("010010")));
  EXPECT_TRUE(s1.covers(epc6("110110")));
  EXPECT_FALSE(s1.covers(epc6("101100")));
}

TEST(Bitmask, ToStringIsPaperNotation) {
  Bitmask s{3, util::BitString::from_binary("11")};
  EXPECT_EQ(s.to_string(), "S(11, 3, 2)");
}

TEST(BitmaskIndex, SceneIsSortedAndDeduplicated) {
  BitmaskIndex index({epc6("110110"), epc6("001110"), epc6("001110")});
  ASSERT_EQ(index.scene_size(), 2u);
  EXPECT_EQ(index.scene()[0], epc6("001110"));
  EXPECT_EQ(index.scene()[1], epc6("110110"));
}

TEST(BitmaskIndex, RejectsEmptyOrMixedLengths) {
  EXPECT_THROW(BitmaskIndex({}), std::invalid_argument);
  EXPECT_THROW(BitmaskIndex({epc6("0011"), epc6("00111")}),
               std::invalid_argument);
}

TEST(BitmaskIndex, BitmapOfMapsSubset) {
  BitmaskIndex index({epc6("000001"), epc6("000010"), epc6("000100")});
  const auto bitmap = index.bitmap_of({epc6("000010"), epc6("111111")});
  EXPECT_EQ(bitmap.count(), 1u);  // unknown EPC ignored
  EXPECT_TRUE(bitmap.test(1));
  // epcs_of inverts bitmap_of.
  const auto epcs = index.epcs_of(bitmap);
  ASSERT_EQ(epcs.size(), 1u);
  EXPECT_EQ(epcs[0], epc6("000010"));
}

TEST(BitmaskIndex, EpcsOfRejectsSizeMismatch) {
  // Regression: epcs_of used to silently truncate on a size mismatch while
  // candidates_for threw — both must validate consistently.
  BitmaskIndex index({epc6("000001"), epc6("000010"), epc6("000100")});
  EXPECT_THROW(index.epcs_of(util::IndicatorBitmap(2)), std::invalid_argument);
  EXPECT_THROW(index.epcs_of(util::IndicatorBitmap(4)), std::invalid_argument);
  // The matching size still round-trips.
  const auto bitmap = index.bitmap_of({epc6("000010")});
  EXPECT_EQ(index.epcs_of(bitmap).size(), 1u);
}

TEST(BitmaskIndex, CandidatesForRejectsSizeMismatch) {
  BitmaskIndex index({epc6("000001"), epc6("000010")});
  EXPECT_THROW(index.candidates_for(util::IndicatorBitmap(3)),
               std::invalid_argument);
}

TEST(BitmaskIndex, CandidatesAllCoverAtLeastOneTarget) {
  util::Rng rng(91);
  std::vector<util::Epc> scene;
  for (int i = 0; i < 40; ++i) scene.push_back(util::Epc::random(rng));
  BitmaskIndex index(scene);
  auto targets = index.bitmap_of({scene[3], scene[17]});
  const auto candidates = index.candidates_for(targets);
  EXPECT_FALSE(candidates.empty());
  for (const auto& c : candidates) {
    EXPECT_GT(c.coverage.and_count(targets), 0u)
        << c.bitmask.to_string() << " covers no target";
  }
}

/// Brute-force candidate table: every mask S(anchor[p, p+l), p, l) over
/// (target ascending, p, l), its coverage matched tag by tag, keeping the
/// first mask for each distinct coverage.
std::vector<BitmaskCandidate> brute_force_candidates(
    const BitmaskIndex& index, const util::IndicatorBitmap& targets) {
  std::vector<BitmaskCandidate> rows;
  std::unordered_set<util::IndicatorBitmap> seen;
  const std::size_t bits = index.epc_bits();
  for (std::size_t t = 0; t < index.scene_size(); ++t) {
    if (!targets.test(t)) continue;
    const util::BitString& anchor = index.scene()[t].bits();
    for (std::size_t p = 0; p < bits; ++p) {
      for (std::size_t l = 1; p + l <= bits; ++l) {
        BitmaskCandidate row;
        row.bitmask = Bitmask{static_cast<std::uint32_t>(p),
                              anchor.substring(p, l)};
        row.coverage = util::IndicatorBitmap(index.scene_size());
        for (std::size_t i = 0; i < index.scene_size(); ++i) {
          if (row.bitmask.covers(index.scene()[i])) row.coverage.set(i);
        }
        row.targets_covered = row.coverage.and_count(targets);
        if (seen.insert(row.coverage).second) rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

TEST(BitmaskIndex, CandidateCoverageBitmapsAreCorrect) {
  util::Rng rng(92);
  std::vector<util::Epc> scene;
  for (int i = 0; i < 25; ++i) scene.push_back(util::Epc::random(rng));
  BitmaskIndex index(scene);
  auto targets = index.bitmap_of({scene[0]});
  for (const auto& c : index.candidates_for(targets)) {
    // Verify the incremental-AND construction against direct matching.
    for (std::size_t i = 0; i < index.scene_size(); ++i) {
      EXPECT_EQ(c.coverage.test(i), c.bitmask.covers(index.scene()[i]))
          << c.bitmask.to_string() << " tag " << i;
    }
  }

  // Completeness and order: the table equals the brute-force enumeration
  // row for row on a random scene and on a clustered one (sequential
  // serials share long prefixes, so many masks collapse to one coverage),
  // at every pool size.
  std::vector<util::Epc> clustered;
  for (std::uint64_t serial = 0; serial < 48; ++serial) {
    clustered.push_back(util::Epc::from_serial(3 * serial));
  }
  for (const auto& [name, epcs] :
       {std::pair{"random", scene}, std::pair{"clustered", clustered}}) {
    const BitmaskIndex scene_index(epcs);
    const auto scene_targets =
        scene_index.bitmap_of({epcs[1], epcs[7], epcs[8], epcs[20]});
    const auto expected = brute_force_candidates(scene_index, scene_targets);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << name << " scene, " << threads
                                      << " threads");
      util::TaskPool pool(threads);
      const auto got = scene_index.candidates_for(scene_targets, &pool);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].bitmask, expected[i].bitmask) << "row " << i;
        EXPECT_EQ(got[i].coverage, expected[i].coverage) << "row " << i;
        EXPECT_EQ(got[i].targets_covered, expected[i].targets_covered)
            << "row " << i;
      }
    }
  }
}

TEST(BitmaskIndex, CoverageBitmapsAreDeduplicated) {
  util::Rng rng(93);
  std::vector<util::Epc> scene;
  for (int i = 0; i < 10; ++i) scene.push_back(util::Epc::random(rng));
  BitmaskIndex index(scene);
  auto targets = index.bitmap_of({scene[2], scene[7]});
  std::unordered_set<util::IndicatorBitmap> seen;
  for (const auto& c : index.candidates_for(targets)) {
    EXPECT_TRUE(seen.insert(c.coverage).second)
        << "duplicate coverage for " << c.bitmask.to_string();
  }
}

TEST(BitmaskIndex, FullEpcMaskAlwaysPresent) {
  // The naive per-target bitmask (the whole EPC) must be representable: a
  // candidate whose coverage is exactly the singleton target.
  util::Rng rng(94);
  std::vector<util::Epc> scene;
  for (int i = 0; i < 30; ++i) scene.push_back(util::Epc::random(rng));
  BitmaskIndex index(scene);
  const auto targets = index.bitmap_of({scene[11]});
  bool found_singleton = false;
  for (const auto& c : index.candidates_for(targets)) {
    if (c.coverage == targets) found_singleton = true;
  }
  EXPECT_TRUE(found_singleton);
}

TEST(BitmaskIndex, PaperFig9Example) {
  // Scene: three targets 001110, 010010, 101100 and non-target 110110.
  const auto t1 = epc6("001110");
  const auto t2 = epc6("010010");
  const auto t3 = epc6("101100");
  const auto nt = epc6("110110");
  BitmaskIndex index({t1, t2, t3, nt});
  const auto targets = index.bitmap_of({t1, t2, t3});
  const auto candidates = index.candidates_for(targets);

  // Fig. 9(b)'s optimal pair must be among the candidates' coverages:
  // S(11, 2, 2) covers 001110 and 101100 but not the non-target;
  const Bitmask s_11_2{2, util::BitString::from_binary("11")};
  // S(01, 0, 2) covers 010010 only (of this scene).
  const Bitmask s_01_0{0, util::BitString::from_binary("01")};
  bool found_a = false, found_b = false;
  for (const auto& c : candidates) {
    util::IndicatorBitmap expected_a(4), expected_b(4);
    for (std::size_t i = 0; i < 4; ++i) {
      if (s_11_2.covers(index.scene()[i])) expected_a.set(i);
      if (s_01_0.covers(index.scene()[i])) expected_b.set(i);
    }
    if (c.coverage == expected_a) found_a = true;
    if (c.coverage == expected_b) found_b = true;
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
}

}  // namespace
}  // namespace tagwatch::core
