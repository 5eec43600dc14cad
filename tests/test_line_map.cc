/** @file Unit tests for LineMap, the flat per-line table. */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/line_map.hh"
#include "sim/rng.hh"

using namespace tsoper;

TEST(LineMap, EmptyMapFindsNothing)
{
    LineMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.contains(42));
    EXPECT_FALSE(m.erase(42));
}

TEST(LineMap, InsertFindEraseRoundTrip)
{
    LineMap<int> m;
    auto [v, inserted] = m.tryEmplace(7, 70);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 70);
    auto [again, insertedAgain] = m.tryEmplace(7, 99);
    EXPECT_FALSE(insertedAgain);
    EXPECT_EQ(again, v);
    EXPECT_EQ(*again, 70);
    m[0] = 5; // Key 0 is an ordinary key.
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.contains(7));
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 5);
}

TEST(LineMap, MatchesUnorderedMapOnClusteredRandomOps)
{
    // Keys drawn from a small dense range collide into long probe runs
    // that wrap around the index, so erase's backward shift is
    // exercised at every position of a run.  Seeded: reproducible.
    Rng rng(20261018);
    LineMap<std::uint64_t> m;
    std::unordered_map<LineAddr, std::uint64_t> ref;
    for (int op = 0; op < 200000; ++op) {
        // Mostly a 96-line cluster, sometimes far-away keys.
        const LineAddr key = rng.below(8) == 0
                                 ? rng.next()
                                 : 0x10000 + rng.below(96) * 8;
        switch (rng.below(3)) {
          case 0: {
            const std::uint64_t value = rng.next();
            auto [v, inserted] = m.tryEmplace(key, value);
            auto [it, refInserted] = ref.try_emplace(key, value);
            ASSERT_EQ(inserted, refInserted);
            ASSERT_EQ(*v, it->second);
            break;
          }
          case 1:
            ASSERT_EQ(m.erase(key), ref.erase(key) == 1);
            break;
          default: {
            const std::uint64_t *v = m.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    // Same size and every reference entry present: same contents.
    for (const auto &[key, value] : ref) {
        const std::uint64_t *v = m.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_EQ(*v, value);
    }
}

TEST(LineMap, ReferenceSurvivesGrowthAndOtherErases)
{
    LineMap<std::vector<int>> m;
    std::vector<int> &held = m[12345];
    held.push_back(1);
    const std::vector<int> *address = &held;
    for (LineAddr k = 0; k < 5000; ++k) {
        if (k != 12345)
            m[k].push_back(static_cast<int>(k));
    }
    for (LineAddr k = 0; k < 5000; k += 2) {
        if (k != 12345)
            m.erase(k);
    }
    EXPECT_EQ(m.find(12345), address);
    held.push_back(2);
    EXPECT_EQ(*m.find(12345), (std::vector<int>{1, 2}));
    for (LineAddr k = 1; k < 5000; k += 2) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(m.find(k)->front(), static_cast<int>(k));
    }
}

TEST(LineMap, DestroysValuesOnEraseAndDestruction)
{
    auto tracker = std::make_shared<int>(0);
    {
        LineMap<std::shared_ptr<int>> m;
        for (LineAddr k = 0; k < 100; ++k)
            m[k] = tracker;
        EXPECT_EQ(tracker.use_count(), 101);
        for (LineAddr k = 0; k < 50; ++k)
            m.erase(k);
        EXPECT_EQ(tracker.use_count(), 51);
    }
    EXPECT_EQ(tracker.use_count(), 1);
}
