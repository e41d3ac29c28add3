#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "os/amntpp_allocator.hh"
#include "os/buddy_allocator.hh"

namespace amnt::os
{
namespace
{

TEST(Buddy, AllFramesAllocatable)
{
    BuddyAllocator b(1024);
    std::set<PageId> seen;
    while (auto f = b.allocPage()) {
        EXPECT_LT(*f, 1024ull);
        EXPECT_TRUE(seen.insert(*f).second) << "double allocation";
    }
    EXPECT_EQ(seen.size(), 1024ull);
    EXPECT_EQ(b.freeFrames(), 0ull);
}

TEST(Buddy, NonPowerOfTwoCapacity)
{
    BuddyAllocator b(1000);
    std::uint64_t n = 0;
    while (b.allocPage())
        ++n;
    EXPECT_EQ(n, 1000ull);
}

TEST(Buddy, OrderAllocationAligned)
{
    BuddyAllocator b(1024);
    for (int i = 0; i < 16; ++i) {
        auto f = b.alloc(4);
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(*f % 16, 0ull) << "order-4 chunk misaligned";
    }
}

TEST(Buddy, FreeCoalescesBackToFullChunks)
{
    BuddyAllocator b(1024, 10);
    std::vector<PageId> frames;
    while (auto f = b.allocPage())
        frames.push_back(*f);
    for (PageId f : frames)
        b.freePage(f);
    EXPECT_EQ(b.freeFrames(), 1024ull);
    EXPECT_EQ(b.chunksAt(10), 1ull); // fully coalesced
    EXPECT_EQ(b.chunksAt(0), 0ull);
}

TEST(Buddy, SplitProducesBuddyHalves)
{
    BuddyAllocator b(16, 4);
    EXPECT_EQ(b.chunksAt(4), 1ull);
    auto f = b.allocPage();
    ASSERT_TRUE(f.has_value());
    // Splitting 16 -> 8+4+2+1 free halves remain.
    EXPECT_EQ(b.chunksAt(3), 1ull);
    EXPECT_EQ(b.chunksAt(2), 1ull);
    EXPECT_EQ(b.chunksAt(1), 1ull);
    EXPECT_EQ(b.chunksAt(0), 1ull);
    EXPECT_EQ(b.freeFrames(), 15ull);
}

TEST(Buddy, IsFreeTracksState)
{
    BuddyAllocator b(64);
    auto f = b.allocPage();
    ASSERT_TRUE(f.has_value());
    EXPECT_FALSE(b.isFree(*f));
    b.freePage(*f);
    EXPECT_TRUE(b.isFree(*f));
}

TEST(Buddy, InstructionAccounting)
{
    BuddyAllocator b(1024);
    const std::uint64_t before = b.instructions();
    b.allocPage();
    EXPECT_GT(b.instructions(), before);
}

TEST(Buddy, AgedSystemLeavesPinsAndRunGranularOrder)
{
    BuddyAllocator b(4096);
    Rng rng(3);
    b.ageSystem(rng, 0.5, /*run_pages=*/64);
    // Whole runs are pinned or freed: free count is a multiple of 64
    // and roughly half the memory.
    EXPECT_EQ(b.freeFrames() % 64, 0ull);
    EXPECT_GT(b.freeFrames(), 1024ull);
    EXPECT_LT(b.freeFrames(), 3072ull);
    EXPECT_EQ(b.instructions(), 0ull);

    // Allocations stay contiguous inside a run but jump across runs:
    // consecutive-frame pairs dominate, yet multiple distinct runs
    // appear and the run sequence is not simply ascending.
    std::vector<PageId> got;
    for (int i = 0; i < 256; ++i)
        got.push_back(*b.allocPage());
    int monotone = 0;
    std::set<PageId> runs_seen;
    for (std::size_t i = 1; i < got.size(); ++i)
        monotone += got[i] == got[i - 1] + 1;
    for (PageId f : got)
        runs_seen.insert(f / 64);
    EXPECT_GT(monotone, 128) << "runs should stay contiguous";
    EXPECT_GE(runs_seen.size(), 3ull);
}

TEST(Buddy, RandomAllocFreeStormPreservesInvariants)
{
    BuddyAllocator b(2048);
    Rng rng(9);
    std::vector<PageId> held;
    for (int i = 0; i < 20000; ++i) {
        if (!held.empty() && rng.chance(0.45)) {
            const std::size_t j = rng.below(held.size());
            b.freePage(held[j]);
            held[j] = held.back();
            held.pop_back();
        } else if (auto f = b.allocPage()) {
            held.push_back(*f);
        }
        ASSERT_EQ(b.freeFrames() + held.size(), 2048ull);
    }
    std::set<PageId> unique(held.begin(), held.end());
    EXPECT_EQ(unique.size(), held.size());
}

using BuddyDeath = ::testing::Test;

TEST(BuddyDeath, FreeOfFrameBeyondMemoryPanics)
{
    BuddyAllocator b(1000, 4);
    EXPECT_DEATH(b.free(1000, 0), "frame beyond memory");
}

TEST(BuddyDeath, FreeAboveMaxOrderPanics)
{
    BuddyAllocator b(1024, 4);
    EXPECT_DEATH(b.free(0, 5), "above max order");
}

TEST(BuddyDeath, FreeOfMisalignedChunkPanics)
{
    BuddyAllocator b(1024, 4);
    EXPECT_DEATH(b.free(8, 4), "misaligned");
}

TEST(BuddyDeath, FreeOfChunkPastMemoryPanics)
{
    // 992 is 16-aligned, but its order-4 chunk ends at 1008 > 1000.
    BuddyAllocator b(1000, 4);
    EXPECT_DEATH(b.free(992, 4), "past memory");
}

/**
 * Exposes the free lists and keeps the frame-by-frame aging that
 * ageSystem() replaced, as the reference its bulk aging must match.
 */
template <typename Base>
class AgingProbe : public Base
{
  public:
    using Base::Base;

    const std::vector<std::list<PageId>> &
    lists() const
    {
        return this->freeLists_;
    }

    /** Allocate every frame, then free each chosen run page by page. */
    void
    ageByPage(Rng &rng, double free_fraction, std::uint64_t run_pages)
    {
        this->aging_ = true;
        while (this->allocPage())
            ;
        const std::uint64_t frames = this->totalFrames();
        std::vector<PageId> runs;
        for (PageId start = 0; start < frames; start += run_pages)
            runs.push_back(start);
        for (std::size_t i = runs.size(); i > 1; --i)
            std::swap(runs[i - 1], runs[rng.below(i)]);
        for (PageId start : runs) {
            if (!rng.chance(free_fraction))
                continue;
            const PageId end = std::min(start + run_pages, frames);
            for (PageId f = start; f < end; ++f)
                this->freePage(f);
        }
        this->aging_ = false;
    }
};

/**
 * Ages two allocators from @p make, one per page and one in bulk,
 * with the same seed, applies @p prepare to both, and expects the
 * same lists, counts, next random draw and allocation order.
 */
template <typename Make, typename Prepare>
void
expectBulkAgingMatchesPerPage(const Make &make, const Prepare &prepare,
                              std::uint64_t seed, double free_fraction,
                              std::uint64_t run_pages,
                              const std::string &what)
{
    auto ref = make();
    auto bulk = make();
    Rng ref_rng(seed), bulk_rng(seed);
    ref.ageByPage(ref_rng, free_fraction, run_pages);
    bulk.ageSystem(bulk_rng, free_fraction, run_pages);

    ASSERT_EQ(bulk.lists(), ref.lists()) << what;
    for (unsigned o = 0; o < ref.lists().size(); ++o)
        ASSERT_EQ(bulk.chunksAt(o), ref.chunksAt(o)) << what;
    ASSERT_EQ(bulk.freeFrames(), ref.freeFrames()) << what;
    ASSERT_EQ(bulk.instructions(), 0u) << what;
    ASSERT_EQ(bulk_rng.next(), ref_rng.next()) << what;

    prepare(ref);
    prepare(bulk);
    ASSERT_EQ(bulk.lists(), ref.lists()) << what;
    while (true) {
        const auto want = ref.allocPage();
        ASSERT_EQ(bulk.allocPage(), want) << what;
        if (!want)
            break;
    }
}

TEST(Buddy, BulkAgingMatchesPerPageAging)
{
    Rng grid(2024);
    for (int c = 0; c < 400; ++c) {
        const auto max_order = static_cast<unsigned>(grid.below(12));
        const std::uint64_t chunk = 1ull << max_order;
        // Runs smaller than, not a multiple of, and larger than the
        // largest chunk.
        std::uint64_t run_pages = 0;
        switch (c % 3) {
        case 0:
            run_pages =
                1 + grid.below(std::max<std::uint64_t>(1, chunk - 1));
            break;
        case 1:
            run_pages = chunk * (1 + grid.below(3)) +
                        (chunk > 1 ? 1 + grid.below(chunk - 1) : 0);
            break;
        default:
            run_pages = chunk * (2 + grid.below(3));
            break;
        }
        // Memory that is neither a power of two nor (runs of one page
        // aside) a whole number of runs, so the tail chunk and the
        // tail run are both partial.
        std::uint64_t frames = 1 + grid.below(5000);
        while ((frames & (frames - 1)) == 0 ||
               (run_pages > 1 && frames % run_pages == 0))
            ++frames;
        const double free_fraction = grid.uniform();
        const std::uint64_t seed = grid.next();
        const std::string what =
            strfmt("case %d: frames=%llu max_order=%u run_pages=%llu", c,
                   static_cast<unsigned long long>(frames), max_order,
                   static_cast<unsigned long long>(run_pages));
        const auto nothing = [](auto &) {};

        if (c % 2 == 0) {
            const auto make = [&] {
                return AgingProbe<BuddyAllocator>(frames, max_order);
            };
            expectBulkAgingMatchesPerPage(make, nothing, seed,
                                          free_fraction, run_pages,
                                          "buddy " + what);
        } else {
            const std::uint64_t per_region = 1 + grid.below(frames);
            const auto make = [&] {
                return AgingProbe<AmntPpAllocator>(frames, per_region,
                                                   max_order);
            };
            expectBulkAgingMatchesPerPage(make, nothing, seed,
                                          free_fraction, run_pages,
                                          "amnt++ " + what);
            expectBulkAgingMatchesPerPage(
                make, [](auto &a) { a.restructure(); }, seed,
                free_fraction, run_pages, "amnt++ restructured " + what);
        }
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace amnt::os
