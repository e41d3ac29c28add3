/**
 * @file
 * Per-process page table with first-touch physical allocation.
 *
 * Virtual address spaces are private per process; physical frames
 * come from the shared buddy (or AMNT++) allocator on first touch.
 * The translation layer is what lets the multiprogram experiments
 * show physical interleaving (Figure 3b) and what gives AMNT++ its
 * lever: same virtual behavior, different physical placement.
 *
 * Layout: a two-level table, as in hardware. A FlatMap directory
 * keyed by the virtual page's upper bits holds dense leaves of
 * kLeafPages frame slots each. Heaps and the workloads' footprints
 * are virtually contiguous, so the directory stays small enough to
 * stay cached and a translation costs one probe of it plus one
 * array read, instead of a hashed lookup over every mapped page.
 */

#ifndef AMNT_OS_PAGE_TABLE_HH
#define AMNT_OS_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "os/buddy_allocator.hh"

namespace amnt::os
{

/** Maps one process's virtual pages to physical frames. */
class PageTable
{
  public:
    /** @param allocator Shared physical allocator; not owned. */
    explicit PageTable(BuddyAllocator &allocator)
        : allocator_(&allocator)
    {
    }

    /**
     * Translate a virtual address, allocating the backing frame on
     * first touch. Returns the physical address.
     */
    Addr translate(Addr vaddr);

    /** Translate without allocating; false when unmapped. */
    bool probe(Addr vaddr, Addr &paddr) const;

    /** Release the frame backing virtual page @p vpage, if any. */
    void unmapPage(PageId vpage);

    /** Release every mapping (process exit). */
    void unmapAll();

    /** Mapped page count. */
    std::size_t mappedPages() const { return mapped_; }

    /** Pages faulted in so far (allocation count). */
    std::uint64_t faults() const { return faults_; }

    /**
     * Iterate mappings: visitor(vpage, pframe). The order is a
     * deterministic function of the mapping history, but not sorted.
     */
    void forEachMapping(
        const std::function<void(PageId, PageId)> &visitor) const;

  private:
    /** A leaf maps 2^kLeafShift virtual pages (256 KB). */
    static constexpr unsigned kLeafShift = 6;
    static constexpr PageId kLeafPages = PageId{1} << kLeafShift;
    /** Frame slot of an unmapped page. */
    static constexpr PageId kUnmapped = ~PageId{0};
    using Leaf = std::array<PageId, kLeafPages>;

    BuddyAllocator *allocator_;
    /** Directory: vpage >> kLeafShift -> leaf of frame slots. */
    FlatMap<PageId, Leaf> leaves_;
    std::size_t mapped_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace amnt::os

#endif // AMNT_OS_PAGE_TABLE_HH
