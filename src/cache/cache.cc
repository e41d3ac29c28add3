#include "cache/cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::cache
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    if (config.sizeBytes == 0 || config.ways == 0)
        panic("cache %s: zero size or associativity",
              config.name.c_str());
    const std::uint64_t total_lines = config.sizeBytes / kBlockSize;
    if (total_lines < config.ways)
        panic("cache %s: fewer lines than ways", config.name.c_str());
    numSets_ = total_lines / config.ways;
    if (!isPowerOfTwo(numSets_))
        panic("cache %s: set count %llu not a power of two",
              config.name.c_str(),
              static_cast<unsigned long long>(numSets_));
    const std::size_t n = numSets_ * config.ways;
    tags_.assign(n, kInvalidTag);
    lastUse_.assign(n, 0);
    dirty_.assign(n, 0);
    hits_ = &stats_.counter("hits");
    misses_ = &stats_.counter("misses");
    fills_ = &stats_.counter("fills");
    evictions_ = &stats_.counter("evictions");
    dirtyEvictions_ = &stats_.counter("dirty_evictions");
}

std::size_t
Cache::setBase(Addr addr) const
{
    return (blockOf(addr) & (numSets_ - 1)) * config_.ways;
}

std::size_t
Cache::find(Addr addr) const
{
    const Addr tag = blockAddr(blockOf(addr));
    const std::size_t base = setBase(addr);
    const Addr *set = &tags_[base];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (set[w] == tag)
            return base + w;
    }
    return kNone;
}

Cache::SetScan
Cache::scan(Addr addr) const
{
    // Victim choice: the first empty way, else the least recently
    // used one; the tag compare keeps running to the end of the set
    // either way.
    const Addr tag = blockAddr(blockOf(addr));
    const std::size_t base = setBase(addr);
    std::size_t victim = base;
    bool empty_found = false;
    for (std::size_t i = base; i < base + config_.ways; ++i) {
        const Addr t = tags_[i];
        if (t == tag)
            return {i, true};
        if (empty_found)
            continue;
        if (t == kInvalidTag) {
            victim = i;
            empty_found = true;
        } else if (lastUse_[i] < lastUse_[victim]) {
            victim = i;
        }
    }
    return {victim, false};
}

void
Cache::touch(std::size_t line, bool set_dirty)
{
    ++*hits_;
    lastUse_[line] = ++useClock_;
    if (set_dirty && dirty_[line] == 0) {
        dirty_[line] = 1;
        ++dirtyLines_;
    }
}

bool
Cache::access(Addr addr, bool set_dirty)
{
    const std::size_t line = find(addr);
    if (line == kNone) {
        ++*misses_;
        return false;
    }
    touch(line, set_dirty);
    return true;
}

bool
Cache::contains(Addr addr) const
{
    return find(addr) != kNone;
}

bool
Cache::isDirty(Addr addr) const
{
    const std::size_t line = find(addr);
    return line != kNone && dirty_[line] != 0;
}

AccessResult
Cache::fillLine(std::size_t line, Addr addr, bool dirty)
{
    AccessResult result;
    if (tags_[line] != kInvalidTag) {
        result.evictedValid = true;
        result.evictedDirty = dirty_[line] != 0;
        result.evictedAddr = tags_[line];
        ++*evictions_;
        if (result.evictedDirty) {
            ++*dirtyEvictions_;
            --dirtyLines_;
        }
    }
    tags_[line] = blockAddr(blockOf(addr));
    dirty_[line] = dirty ? 1 : 0;
    if (dirty)
        ++dirtyLines_;
    lastUse_[line] = ++useClock_;
    ++*fills_;
    return result;
}

AccessResult
Cache::insert(Addr addr, bool dirty)
{
    const SetScan s = scan(addr);
    if (s.hit)
        panic("cache %s: insert of resident block", config_.name.c_str());
    return fillLine(s.line, addr, dirty);
}

AccessResult
Cache::install(Addr addr, bool dirty)
{
    const SetScan s = scan(addr);
    if (!s.hit)
        return fillLine(s.line, addr, dirty);
    if (dirty)
        touch(s.line, true);
    AccessResult result;
    result.hit = true;
    return result;
}

void
Cache::clean(Addr addr)
{
    const std::size_t line = find(addr);
    if (line != kNone && dirty_[line] != 0) {
        dirty_[line] = 0;
        --dirtyLines_;
    }
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t line = find(addr);
    if (line == kNone)
        return false;
    const bool was_dirty = dirty_[line] != 0;
    if (was_dirty)
        --dirtyLines_;
    tags_[line] = kInvalidTag;
    dirty_[line] = 0;
    return was_dirty;
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
    dirtyLines_ = 0;
}

} // namespace amnt::cache
