/**
 * @file
 * Set-associative cache model with LRU replacement and per-line dirty
 * bits, used both for the on-chip data hierarchy and for the 64 kB
 * security-metadata cache.
 *
 * The model is tag-only: block contents travel through the engines
 * that own the cache, which keeps the same class usable by the
 * content-free timing plane and the functional plane. Eviction of a
 * dirty line invokes a caller-provided write-back handler.
 *
 * Storage is structure-of-arrays: each set's tags are contiguous (an
 * empty way holds a sentinel that no block-aligned address equals, so
 * a lookup is one compare per way), with LRU stamps and dirty bits in
 * parallel arrays that only hits, fills and scans touch.
 */

#ifndef AMNT_CACHE_CACHE_HH
#define AMNT_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace amnt::cache
{

/** Construction parameters. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned ways = 8;
    Cycle hitLatency = 2;
};

/** Outcome of an access. */
struct AccessResult
{
    bool hit = false;
    bool evictedValid = false;  ///< a victim line was displaced
    bool evictedDirty = false;  ///< ... and it was dirty
    Addr evictedAddr = 0;       ///< block address of the victim
};

/**
 * Tag-array cache. Addresses are block aligned internally; any byte
 * address within a block refers to the same line.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    // Noncopyable: hot-path counters point into the stats group.
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Cache name (statistics prefix). */
    const std::string &name() const { return config_.name; }

    /** Total line count. */
    std::uint64_t lines() const { return numSets_ * config_.ways; }

    /**
     * Lines currently dirty (write-queue residency: the write-back
     * work outstanding against backing memory). Maintained
     * incrementally, so sampling it per access is O(1).
     */
    std::uint64_t dirtyLines() const { return dirtyLines_; }

    /** Hit latency in cycles. */
    Cycle hitLatency() const { return config_.hitLatency; }

    /**
     * Look up @p addr; on hit, refresh LRU and optionally set the
     * dirty bit. Does not allocate on miss.
     */
    bool access(Addr addr, bool set_dirty);

    /** Non-mutating presence test. */
    bool contains(Addr addr) const;

    /** Non-mutating dirty test (false when absent). */
    bool isDirty(Addr addr) const;

    /**
     * Allocate a line for @p addr (must not currently hit). The first
     * empty way of the set, else its LRU way, is the victim; its
     * identity is reported in the result so the owner can write back
     * content.
     */
    AccessResult insert(Addr addr, bool dirty);

    /**
     * Fill from an upper level: insert(@p addr, @p dirty) when absent.
     * A resident line reports hit; a dirty fill then updates it as
     * access(addr, true) would, and a clean fill leaves it untouched.
     * One pass over the set either way.
     */
    AccessResult install(Addr addr, bool dirty);

    /** Clear the dirty bit of a resident line (write-through commit). */
    void clean(Addr addr);

    /** Invalidate one line if present; returns whether it was dirty. */
    bool invalidate(Addr addr);

    /** Drop every line (power loss of a volatile array). */
    void invalidateAll();

    /**
     * Visit every valid line: visitor(addr, dirty), in line order.
     * Used by AMNT's subtree-movement and Phoenix's epoch dirty scans.
     */
    template <typename Visitor>
    void
    forEachLine(Visitor &&visitor) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidTag)
                visitor(tags_[i], dirty_[i] != 0);
        }
    }

    /** Clear dirty bits that @p pred selects; returns count cleaned. */
    template <typename Pred>
    std::uint64_t
    cleanIf(Pred &&pred)
    {
        std::uint64_t cleaned = 0;
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (dirty_[i] != 0 && pred(tags_[i])) {
                dirty_[i] = 0;
                --dirtyLines_;
                ++cleaned;
            }
        }
        return cleaned;
    }

    /** Statistics: hits, misses, evictions, dirty evictions. */
    const StatGroup &stats() const { return stats_; }

    /** Mutable statistics (registry federation / reset-in-place). */
    StatGroup &stats() { return stats_; }

    /** Hit rate over all accesses so far. */
    double
    hitRate() const
    {
        return stats_.ratio("hits", "misses");
    }

  private:
    /** Tag of an empty way: never a block-aligned address. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    /** find() result for an absent block. */
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** One pass over a set: the block's way, or the victim way. */
    struct SetScan
    {
        std::size_t line;
        bool hit;
    };

    /** Index of the first line of @p addr's set. */
    std::size_t setBase(Addr addr) const;
    /** Line index holding @p addr, or kNone. */
    std::size_t find(Addr addr) const;
    SetScan scan(Addr addr) const;
    /** Hit bookkeeping: count, refresh LRU, optionally set dirty. */
    void touch(std::size_t line, bool set_dirty);
    /** Displace line @p line's occupant (if any) with @p addr. */
    AccessResult fillLine(std::size_t line, Addr addr, bool dirty);

    CacheConfig config_;
    std::uint64_t numSets_;
    // Per line, indexed set * ways + way.
    std::vector<Addr> tags_;                 ///< kInvalidTag when empty
    std::vector<std::uint64_t> lastUse_;     ///< LRU stamp
    std::vector<std::uint8_t> dirty_;        ///< 0/1; 0 when empty
    std::uint64_t useClock_ = 0;
    std::uint64_t dirtyLines_ = 0;
    StatGroup stats_;

    // Per-access counters resolved once (see StatGroup::counter).
    std::uint64_t *hits_;
    std::uint64_t *misses_;
    std::uint64_t *fills_;
    std::uint64_t *evictions_;
    std::uint64_t *dirtyEvictions_;
};

} // namespace amnt::cache

#endif // AMNT_CACHE_CACHE_HH
