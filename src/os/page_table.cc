#include "os/page_table.hh"

#include "common/log.hh"

namespace amnt::os
{

Addr
PageTable::translate(Addr vaddr)
{
    const PageId vpage = pageOf(vaddr);
    auto it = leaves_.find(vpage >> kLeafShift);
    if (it == leaves_.end()) {
        it = leaves_.try_emplace(vpage >> kLeafShift).first;
        it->second.fill(kUnmapped);
    }
    PageId &frame = it->second[vpage & (kLeafPages - 1)];
    if (frame == kUnmapped) {
        const auto fresh = allocator_->allocPage();
        if (!fresh)
            fatal("out of physical memory at vpage %llu",
                  static_cast<unsigned long long>(vpage));
        frame = *fresh;
        ++mapped_;
        ++faults_;
    }
    return pageAddr(frame) + (vaddr & (kPageSize - 1));
}

bool
PageTable::probe(Addr vaddr, Addr &paddr) const
{
    const PageId vpage = pageOf(vaddr);
    auto it = leaves_.find(vpage >> kLeafShift);
    if (it == leaves_.end())
        return false;
    const PageId frame = it->second[vpage & (kLeafPages - 1)];
    if (frame == kUnmapped)
        return false;
    paddr = pageAddr(frame) + (vaddr & (kPageSize - 1));
    return true;
}

void
PageTable::unmapPage(PageId vpage)
{
    auto it = leaves_.find(vpage >> kLeafShift);
    if (it == leaves_.end())
        return;
    PageId &frame = it->second[vpage & (kLeafPages - 1)];
    if (frame == kUnmapped)
        return;
    allocator_->freePage(frame);
    frame = kUnmapped;
    --mapped_;
}

void
PageTable::unmapAll()
{
    for (const auto &kv : leaves_)
        for (PageId frame : kv.second)
            if (frame != kUnmapped)
                allocator_->freePage(frame);
    leaves_.clear();
    mapped_ = 0;
}

void
PageTable::forEachMapping(
    const std::function<void(PageId, PageId)> &visitor) const
{
    for (const auto &kv : leaves_)
        for (PageId i = 0; i < kLeafPages; ++i)
            if (kv.second[i] != kUnmapped)
                visitor((kv.first << kLeafShift) | i, kv.second[i]);
}

} // namespace amnt::os
