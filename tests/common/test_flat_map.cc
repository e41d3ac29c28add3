/**
 * FlatMap unit tests: parity with std::unordered_map across insert,
 * find, erase (backward-shift deletion), rehash, and iteration, plus
 * the edge cases open addressing gets wrong when the probe-chain
 * bookkeeping is off (erase in long collision runs, wrap-around at
 * the table end).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/types.hh"

using namespace amnt;

namespace
{

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.contains(0));
    EXPECT_EQ(map.find(42), map.end());
}

TEST(FlatMap, InsertAndFind)
{
    FlatMap<std::uint64_t, int> map;
    map[5] = 50;
    map[9] = 90;
    ASSERT_TRUE(map.contains(5));
    ASSERT_TRUE(map.contains(9));
    EXPECT_EQ(map.find(5)->second, 50);
    EXPECT_EQ(map.find(9)->second, 90);
    EXPECT_FALSE(map.contains(7));
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, TryEmplaceReportsFreshness)
{
    FlatMap<std::uint64_t, int> map;
    auto [it1, fresh1] = map.try_emplace(3);
    EXPECT_TRUE(fresh1);
    EXPECT_EQ(it1->second, 0); // value-initialized
    it1->second = 33;
    auto [it2, fresh2] = map.try_emplace(3);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second, 33);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, EraseRemovesOnlyTarget)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 64; ++k)
        map[k * 64] = static_cast<int>(k);
    EXPECT_TRUE(map.erase(0));
    EXPECT_FALSE(map.erase(0));
    EXPECT_EQ(map.size(), 63u);
    for (std::uint64_t k = 1; k < 64; ++k) {
        ASSERT_TRUE(map.contains(k * 64));
        EXPECT_EQ(map.find(k * 64)->second, static_cast<int>(k));
    }
}

TEST(FlatMap, GrowthPreservesEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    // Push well past several rehash thresholds.
    for (std::uint64_t k = 0; k < 10'000; ++k)
        map[k * 0x40] = k ^ 0xabcd;
    EXPECT_EQ(map.size(), 10'000u);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        auto it = map.find(k * 0x40);
        ASSERT_NE(it, map.end());
        EXPECT_EQ(it->second, k ^ 0xabcd);
    }
}

TEST(FlatMap, ClearEmptiesButStaysUsable)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k] = 1;
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(5));
    map[5] = 2;
    EXPECT_EQ(map.find(5)->second, 2);
}

TEST(FlatMap, IterationVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t k = 1; k <= 200; ++k)
        map[k * kBlockSize] = k;
    std::uint64_t count = 0, sum = 0;
    for (const auto &kv : map) {
        ++count;
        sum += kv.second;
    }
    EXPECT_EQ(count, 200u);
    EXPECT_EQ(sum, 200u * 201u / 2);
}

/** Identity hash forces collision runs so backward-shift is covered. */
struct IdentityHash
{
    std::size_t
    operator()(std::uint64_t v) const
    {
        return static_cast<std::size_t>(v);
    }
};

TEST(FlatMap, BackwardShiftKeepsCollisionRunsReachable)
{
    // All keys land on nearby home slots: erasing in the middle of
    // the run must not orphan the tail entries.
    FlatMap<std::uint64_t, int, IdentityHash> map;
    const std::vector<std::uint64_t> keys = {16, 32, 48, 17, 33, 18};
    for (std::uint64_t k : keys)
        map[k] = static_cast<int>(k);
    EXPECT_TRUE(map.erase(32));
    for (std::uint64_t k : keys) {
        if (k == 32)
            continue;
        ASSERT_TRUE(map.contains(k)) << "lost key " << k;
        EXPECT_EQ(map.find(k)->second, static_cast<int>(k));
    }
}

/** Every live key is visited exactly once, holding its value. */
void
expectIterationMatches(
    const FlatMap<std::uint64_t, std::uint64_t> &map,
    const std::unordered_map<std::uint64_t, std::uint64_t> &ref)
{
    std::unordered_map<std::uint64_t, int> visits;
    for (const auto &kv : map) {
        ++visits[kv.first];
        auto rit = ref.find(kv.first);
        ASSERT_NE(rit, ref.end()) << "dead key " << kv.first;
        ASSERT_EQ(kv.second, rit->second) << "key " << kv.first;
    }
    ASSERT_EQ(visits.size(), ref.size());
    for (const auto &kv : visits)
        ASSERT_EQ(kv.second, 1) << "key " << kv.first;
}

TEST(FlatMap, RandomizedParityWithUnorderedMap)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(12345);

    // Phases alternate between insert-heavy and erase-heavy mixes, so
    // the map repeatedly grows, drains (moving values to fill erased
    // gaps) and refills; each phase ends with a full iteration.
    for (int phase = 0; phase < 20; ++phase) {
        const bool erase_heavy = phase % 2 == 1;
        for (int step = 0; step < 10'000; ++step) {
            // Block-aligned keys from a small space: plenty of erase
            // hits and re-inserts of previously deleted slots.
            const std::uint64_t key = rng.below(4096) * kBlockSize;
            const std::uint64_t op = rng.below(8);
            if (op < (erase_heavy ? 1u : 4u)) { // insert / overwrite
                const std::uint64_t value = rng.next();
                map[key] = value;
                ref[key] = value;
            } else if (op < 6) { // erase
                EXPECT_EQ(map.erase(key), ref.erase(key) != 0);
            } else { // lookup
                auto it = map.find(key);
                auto rit = ref.find(key);
                ASSERT_EQ(it != map.end(), rit != ref.end());
                if (rit != ref.end()) {
                    ASSERT_EQ(it->second, rit->second);
                }
            }
            ASSERT_EQ(map.size(), ref.size());
        }
        expectIterationMatches(map, ref);
        if (HasFatalFailure())
            return;
    }

    // Full-content comparison at the end, via range construction.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got(
        map.begin(), map.end());
    std::sort(got.begin(), got.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
        ref.begin(), ref.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
}

TEST(FlatMap, ReferencesSurviveInsertsWithoutGrowth)
{
    // Capacity starts at 16 slots and doubles whenever an insert
    // would push the load past 1/2, so a map of n entries can take
    // inserts up to half its capacity without growing.
    for (std::uint64_t n : {1u, 9u, 100u, 1000u}) {
        FlatMap<std::uint64_t, std::uint64_t> map;
        for (std::uint64_t k = 0; k < n; ++k)
            map[k * kBlockSize] = k;
        std::uint64_t capacity = 16;
        while (n * 2 > capacity)
            capacity *= 2;

        // References to existing and to fresh entries, alternating
        // operator[] and try_emplace.
        std::vector<const std::uint64_t *> addr;
        for (std::uint64_t k = 0; k < capacity / 2; ++k) {
            std::uint64_t *v = nullptr;
            if (k % 2 == 0) {
                v = &map[k * kBlockSize];
            } else {
                auto [it, fresh] = map.try_emplace(k * kBlockSize);
                EXPECT_EQ(fresh, k >= n);
                v = &it->second;
            }
            *v = k;
            addr.push_back(v);
        }
        ASSERT_EQ(map.size(), capacity / 2);
        for (std::uint64_t k = 0; k < capacity / 2; ++k) {
            auto it = map.find(k * kBlockSize);
            ASSERT_NE(it, map.end());
            EXPECT_EQ(&it->second, addr[k]) << "n=" << n << " k=" << k;
            EXPECT_EQ(*addr[k], k);
        }
    }
}

} // namespace
