#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/rng.hh"
#include "os/page_table.hh"

namespace amnt::os
{
namespace
{

TEST(PageTable, FirstTouchAllocates)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    EXPECT_EQ(pt.faults(), 0ull);
    const Addr p = pt.translate(0x12345);
    EXPECT_EQ(pt.faults(), 1ull);
    EXPECT_EQ(p & (kPageSize - 1), 0x345ull); // offset preserved
    EXPECT_EQ(alloc.freeFrames(), 255ull);
}

TEST(PageTable, StableTranslation)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    const Addr a = pt.translate(0x4000);
    EXPECT_EQ(pt.translate(0x4000), a);
    EXPECT_EQ(pt.translate(0x4fff), a + 0xfff);
    EXPECT_EQ(pt.faults(), 1ull);
}

TEST(PageTable, DistinctPagesDistinctFrames)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    const Addr a = pt.translate(0x0000);
    const Addr b = pt.translate(0x1000);
    EXPECT_NE(pageOf(a), pageOf(b));
}

TEST(PageTable, TwoProcessesNeverShareFrames)
{
    BuddyAllocator alloc(256);
    PageTable p1(alloc), p2(alloc);
    const Addr a = p1.translate(0x8000);
    const Addr b = p2.translate(0x8000); // same vaddr, other process
    EXPECT_NE(pageOf(a), pageOf(b));
}

TEST(PageTable, ProbeDoesNotAllocate)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    Addr out = 0;
    EXPECT_FALSE(pt.probe(0x9000, out));
    EXPECT_EQ(pt.faults(), 0ull);
    pt.translate(0x9000);
    EXPECT_TRUE(pt.probe(0x9123, out));
}

TEST(PageTable, UnmapReturnsFrameAndRefaults)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    pt.translate(0x3000);
    EXPECT_EQ(alloc.freeFrames(), 255ull);
    pt.unmapPage(3);
    EXPECT_EQ(alloc.freeFrames(), 256ull);
    pt.translate(0x3000);
    EXPECT_EQ(pt.faults(), 2ull);
}

TEST(PageTable, UnmapAllReleasesEverything)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    for (int i = 0; i < 50; ++i)
        pt.translate(static_cast<Addr>(i) * kPageSize);
    EXPECT_EQ(pt.mappedPages(), 50ull);
    pt.unmapAll();
    EXPECT_EQ(pt.mappedPages(), 0ull);
    EXPECT_EQ(alloc.freeFrames(), 256ull);
}

TEST(PageTable, ForEachMappingVisitsAll)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    pt.translate(0x1000);
    pt.translate(0x5000);
    int n = 0;
    pt.forEachMapping([&](PageId, PageId) { ++n; });
    EXPECT_EQ(n, 2);
}

/**
 * Reference page table: first-touch allocation over a
 * std::unordered_map, driving its own allocator of the same size, so
 * frame numbers must match the flat table's exactly.
 */
struct ReferenceTable
{
    explicit ReferenceTable(std::uint64_t frames) : alloc(frames) {}

    Addr
    translate(Addr vaddr)
    {
        auto it = map.find(pageOf(vaddr));
        if (it == map.end()) {
            it = map.emplace(pageOf(vaddr), *alloc.allocPage()).first;
            ++faults;
        }
        return pageAddr(it->second) + (vaddr & (kPageSize - 1));
    }

    void
    unmapPage(PageId vpage)
    {
        auto it = map.find(vpage);
        if (it == map.end())
            return;
        alloc.freePage(it->second);
        map.erase(it);
    }

    BuddyAllocator alloc;
    std::unordered_map<PageId, PageId> map;
    std::uint64_t faults = 0;
};

TEST(PageTable, RandomizedParityWithUnorderedMap)
{
    constexpr std::uint64_t kFrames = 4096;
    constexpr std::uint64_t kVpages = 3000; // sparse, spread below
    BuddyAllocator alloc(kFrames);
    PageTable pt(alloc);
    ReferenceTable ref(kFrames);
    Rng rng(0x9a6e);

    auto vpageAt = [](std::uint64_t i) { return i * 37 + (i >> 3); };
    for (int op = 0; op < 40000; ++op) {
        const PageId vpage = vpageAt(rng.below(kVpages));
        const Addr vaddr = pageAddr(vpage) + rng.below(kPageSize);
        const std::uint64_t kind = rng.below(10);
        if (kind < 6) {
            ASSERT_EQ(pt.translate(vaddr), ref.translate(vaddr)) << op;
        } else if (kind < 8) {
            // Churn: unmap, so the page refaults on its next touch.
            pt.unmapPage(vpage);
            ref.unmapPage(vpage);
        } else {
            Addr got = 0;
            const bool mapped = pt.probe(vaddr, got);
            auto it = ref.map.find(vpage);
            ASSERT_EQ(mapped, it != ref.map.end()) << op;
            if (mapped) {
                ASSERT_EQ(got, pageAddr(it->second) +
                                   (vaddr & (kPageSize - 1)))
                    << op;
            }
        }
        ASSERT_EQ(pt.faults(), ref.faults) << op;
        ASSERT_EQ(pt.mappedPages(), ref.map.size()) << op;
        ASSERT_EQ(alloc.freeFrames(), ref.alloc.freeFrames()) << op;
    }
    EXPECT_GT(pt.faults(), pt.mappedPages()); // refaults happened

    std::map<PageId, PageId> got;
    pt.forEachMapping([&](PageId v, PageId f) { got.emplace(v, f); });
    const std::map<PageId, PageId> want(ref.map.begin(), ref.map.end());
    EXPECT_EQ(got, want);

    pt.unmapAll();
    EXPECT_EQ(pt.mappedPages(), 0ull);
    EXPECT_EQ(alloc.freeFrames(), kFrames);
}

} // namespace
} // namespace amnt::os
