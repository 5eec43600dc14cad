/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include "mem/cache_array.hh"

using namespace tsoper;

TEST(CacheArray, InsertAndContains)
{
    CacheArray a(4, 2);
    EXPECT_FALSE(a.contains(5));
    const auto r = a.insert(5);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted);
    EXPECT_TRUE(a.contains(5));
    EXPECT_EQ(a.size(), 1u);
}

TEST(CacheArray, ReinsertIsHit)
{
    CacheArray a(4, 2);
    a.insert(5);
    const auto r = a.insert(5);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(a.size(), 1u);
}

TEST(CacheArray, LruEviction)
{
    CacheArray a(1, 2); // One set, 2 ways: lines collide.
    a.insert(10);
    a.insert(20);
    a.touch(10); // 20 becomes LRU.
    const auto r = a.insert(30);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 20u);
    EXPECT_TRUE(a.contains(10));
    EXPECT_TRUE(a.contains(30));
}

TEST(CacheArray, PinnedLinesAreNotVictims)
{
    CacheArray a(1, 2);
    a.insert(1);
    a.insert(2);
    a.setPinned(1, true);
    a.touch(2); // 1 is LRU but pinned.
    const auto r = a.insert(3);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 2u);
}

TEST(CacheArray, NoSpaceWhenAllPinned)
{
    CacheArray a(1, 2);
    a.insert(1);
    a.insert(2);
    a.setPinned(1, true);
    a.setPinned(2, true);
    const auto r = a.insert(3);
    EXPECT_TRUE(r.noSpace);
    EXPECT_FALSE(a.contains(3));
}

TEST(CacheArray, EraseFreesWay)
{
    CacheArray a(1, 1);
    a.insert(7);
    EXPECT_TRUE(a.erase(7));
    EXPECT_FALSE(a.erase(7));
    const auto r = a.insert(8);
    EXPECT_FALSE(r.evicted);
}

TEST(CacheArray, SetIndexingSeparatesSets)
{
    CacheArray a(4, 1);
    // Lines 0..3 map to different sets: no evictions.
    for (LineAddr l = 0; l < 4; ++l)
        EXPECT_FALSE(a.insert(l).evicted);
    EXPECT_EQ(a.size(), 4u);
    // Line 4 collides with line 0 only.
    const auto r = a.insert(4);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 0u);
}

TEST(CacheArray, SetShiftSkipsBankBits)
{
    CacheArray a(4, 1, /*setShift=*/3);
    // With shift 3, lines 0 and 1 share set 0.
    a.insert(0);
    const auto r = a.insert(1);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 0u);
}

TEST(CacheArray, ForEachVisitsAllResidents)
{
    CacheArray a(8, 2);
    for (LineAddr l = 0; l < 10; ++l)
        a.insert(l);
    unsigned count = 0;
    a.forEach([&](LineAddr) { ++count; });
    EXPECT_EQ(count, a.size());
}

TEST(CacheArray, PowerOfTwoSetsEnforced)
{
    EXPECT_THROW(CacheArray(3, 2), std::logic_error);
}

TEST(CacheArray, CopyCarriesLinesPinsAndRecency)
{
    // Ways are written lazily per set; a copy must carry exactly the
    // sets in use, with their recency and pins, and stay independent.
    CacheArray a(4, 2);
    a.insert(0);
    a.insert(4); // Set 0 full: 0 is LRU.
    a.insert(1);
    a.setPinned(1, true);
    CacheArray b(a);
    CacheArray c(8, 1);
    c = a;
    for (CacheArray *x : {&b, &c}) {
        EXPECT_EQ(x->size(), 3u);
        EXPECT_TRUE(x->isPinned(1));
        EXPECT_FALSE(x->contains(2)); // Untouched set.
        const auto r = x->insert(8);  // Set 0 again.
        EXPECT_TRUE(r.evicted);
        EXPECT_EQ(r.victim, 0u);
    }
    EXPECT_TRUE(a.contains(0)); // The original is unaffected.
    EXPECT_EQ(a.size(), 3u);
}
