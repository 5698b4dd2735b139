#include "src/util/bitset.h"

#include <set>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace pereach {
namespace {

TEST(BitsetTest, StartsEmpty) {
  Bitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitsetTest, SetResetTest) {
  Bitset b(130);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitsetTest, UnionWithReportsChange) {
  Bitset a(70), b(70);
  b.Set(5);
  b.Set(69);
  EXPECT_TRUE(a.UnionWith(b));
  EXPECT_TRUE(a.Test(5));
  EXPECT_TRUE(a.Test(69));
  EXPECT_FALSE(a.UnionWith(b));  // already a superset
}

TEST(BitsetTest, Intersects) {
  Bitset a(128), b(128);
  a.Set(100);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(100);
  EXPECT_TRUE(a.Intersects(b));
  b.Reset(100);
  b.Set(99);
  EXPECT_FALSE(a.Intersects(b));
}

TEST(BitsetTest, ForEachSetBitAscending) {
  Bitset b(200);
  const std::vector<size_t> expected = {0, 1, 63, 64, 65, 128, 199};
  for (size_t i : expected) b.Set(i);
  EXPECT_EQ(b.ToVector(), expected);
}

TEST(BitsetTest, ClearZeroesEverything) {
  Bitset b(90);
  for (size_t i = 0; i < 90; i += 3) b.Set(i);
  b.Clear();
  EXPECT_TRUE(b.None());
}

TEST(BitsetTest, EqualityComparesSizeAndBits) {
  Bitset a(64), b(64), c(65);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  a.Set(3);
  EXPECT_FALSE(a == b);
  b.Set(3);
  EXPECT_EQ(a, b);
}

TEST(BitsetTest, SizeZeroIsLegal) {
  Bitset b(0);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
}

// Property: a Bitset behaves exactly like std::set<size_t> under random
// Set/Reset/Test/Count sequences.
TEST(BitsetTest, MatchesReferenceSetUnderRandomOps) {
  Rng rng(7);
  const size_t n = 500;
  Bitset b(n);
  std::set<size_t> reference;
  for (int op = 0; op < 5000; ++op) {
    const size_t i = rng.Uniform(n);
    switch (rng.Uniform(3)) {
      case 0:
        b.Set(i);
        reference.insert(i);
        break;
      case 1:
        b.Reset(i);
        reference.erase(i);
        break;
      default:
        ASSERT_EQ(b.Test(i), reference.count(i) > 0) << "bit " << i;
    }
  }
  EXPECT_EQ(b.Count(), reference.size());
  std::vector<size_t> expected(reference.begin(), reference.end());
  EXPECT_EQ(b.ToVector(), expected);
}

// Property: UnionWith agrees with set_union.
TEST(BitsetTest, UnionMatchesReferenceUnion) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Uniform(300);
    Bitset a(n), b(n);
    std::set<size_t> ra, rb;
    for (size_t i = 0; i < n / 2; ++i) {
      const size_t x = rng.Uniform(n);
      a.Set(x);
      ra.insert(x);
      const size_t y = rng.Uniform(n);
      b.Set(y);
      rb.insert(y);
    }
    const bool expect_changed = !std::includes(ra.begin(), ra.end(),
                                               rb.begin(), rb.end());
    EXPECT_EQ(a.UnionWith(b), expect_changed);
    ra.insert(rb.begin(), rb.end());
    std::vector<size_t> expected(ra.begin(), ra.end());
    EXPECT_EQ(a.ToVector(), expected);
  }
}

}  // namespace
}  // namespace pereach
