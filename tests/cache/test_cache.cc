#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/bitops.hh"
#include "common/rng.hh"

namespace amnt::cache
{
namespace
{

CacheConfig
smallCache()
{
    // 4 sets x 2 ways of 64 B lines.
    return {"test", 512, 2, 1};
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0, false));
    c.insert(0x0, false);
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_EQ(c.stats().get("hits"), 1ull);
    EXPECT_EQ(c.stats().get("misses"), 1ull);
}

TEST(Cache, BlockGranularity)
{
    Cache c(smallCache());
    c.insert(0x0, false);
    EXPECT_TRUE(c.access(0x3f, false)); // same 64 B block
    EXPECT_FALSE(c.access(0x40, false));
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Set index = block % 4; blocks 0, 4, 8 all map to set 0.
    c.insert(0 * 64, false);
    c.insert(4 * 64, false);
    c.access(0 * 64, false); // make block 0 most recent
    const AccessResult res = c.insert(8 * 64, false);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_EQ(res.evictedAddr, 4ull * 64); // LRU victim
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(smallCache());
    c.insert(0 * 64, true);
    c.insert(4 * 64, false);
    const AccessResult res = c.insert(8 * 64, false);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(res.evictedAddr, 0ull);
    EXPECT_EQ(c.stats().get("dirty_evictions"), 1ull);
}

TEST(Cache, AccessCanSetDirty)
{
    Cache c(smallCache());
    c.insert(0, false);
    EXPECT_FALSE(c.isDirty(0));
    c.access(0, true);
    EXPECT_TRUE(c.isDirty(0));
    c.clean(0);
    EXPECT_FALSE(c.isDirty(0));
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(smallCache());
    c.insert(0, true);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.invalidate(0));
}

TEST(Cache, InvalidateAll)
{
    Cache c(smallCache());
    c.insert(0, true);
    c.insert(64, false);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
}

TEST(Cache, ForEachLineAndCleanIf)
{
    Cache c(smallCache());
    c.insert(0 * 64, true);
    c.insert(1 * 64, true);
    c.insert(2 * 64, false);
    int dirty = 0, valid = 0;
    c.forEachLine([&](Addr, bool d) {
        ++valid;
        dirty += d;
    });
    EXPECT_EQ(valid, 3);
    EXPECT_EQ(dirty, 2);

    const std::uint64_t cleaned =
        c.cleanIf([](Addr a) { return a == 0; });
    EXPECT_EQ(cleaned, 1ull);
    EXPECT_FALSE(c.isDirty(0));
    EXPECT_TRUE(c.isDirty(64));
}

TEST(Cache, HitRate)
{
    Cache c(smallCache());
    c.insert(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(64, false); // miss
    EXPECT_DOUBLE_EQ(c.hitRate(), 2.0 / 3.0);
}

TEST(Cache, FillsUseInvalidWaysFirst)
{
    Cache c(smallCache());
    c.insert(0 * 64, false);
    const AccessResult res = c.insert(4 * 64, false);
    EXPECT_FALSE(res.evictedValid);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_TRUE(c.contains(4 * 64));
}

TEST(CacheDeathTest, InsertOfResidentBlockPanics)
{
    Cache c(smallCache());
    c.insert(0x40, false);
    EXPECT_DEATH(c.insert(0x7f, true), "insert of resident block");
}

TEST(Cache, InstallAbsorbsResidentFill)
{
    Cache c(smallCache());
    const AccessResult first = c.install(0x0, false);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(c.stats().get("fills"), 1ull);

    // Clean fill of a resident line: no stat, no LRU or dirty change.
    EXPECT_TRUE(c.install(0x0, false).hit);
    EXPECT_EQ(c.stats().get("hits"), 0ull);
    EXPECT_FALSE(c.isDirty(0x0));

    // Dirty fill of a resident line: a dirty hit.
    EXPECT_TRUE(c.install(0x0, true).hit);
    EXPECT_EQ(c.stats().get("hits"), 1ull);
    EXPECT_TRUE(c.isDirty(0x0));
    EXPECT_EQ(c.dirtyLines(), 1ull);
    EXPECT_EQ(c.stats().get("fills"), 1ull);
}

/**
 * The array-of-lines cache the tag-array layout replaced, kept as the
 * reference model: lines carry {tag, valid, dirty, lastUse}; a fill
 * takes the first invalid way of the set, else the smallest lastUse.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : ways_(config.ways),
          numSets_(config.sizeBytes / kBlockSize / config.ways),
          lines_(numSets_ * ways_)
    {
    }

    bool
    access(Addr addr, bool set_dirty)
    {
        Line *line = find(addr);
        if (line == nullptr) {
            ++misses;
            return false;
        }
        ++hits;
        line->lastUse = ++useClock_;
        if (set_dirty && !line->dirty) {
            line->dirty = true;
            ++dirtyLines;
        }
        return true;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    bool
    isDirty(Addr addr)
    {
        const Line *line = find(addr);
        return line != nullptr && line->dirty;
    }

    AccessResult
    insert(Addr addr, bool dirty)
    {
        Line *set = &lines_[setOf(addr) * ways_];
        Line *victim = &set[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        AccessResult result;
        if (victim->valid) {
            result.evictedValid = true;
            result.evictedDirty = victim->dirty;
            result.evictedAddr = victim->tag;
            ++evictions;
            if (victim->dirty) {
                ++dirtyEvictions;
                --dirtyLines;
            }
        }
        victim->tag = blockAddr(blockOf(addr));
        victim->valid = true;
        victim->dirty = dirty;
        if (dirty)
            ++dirtyLines;
        victim->lastUse = ++useClock_;
        ++fills;
        return result;
    }

    /** CacheHierarchy's former two-probe fill of one level. */
    AccessResult
    install(Addr addr, bool dirty)
    {
        if (contains(addr)) {
            if (dirty)
                access(addr, true);
            AccessResult result;
            result.hit = true;
            return result;
        }
        return insert(addr, dirty);
    }

    void
    clean(Addr addr)
    {
        Line *line = find(addr);
        if (line != nullptr && line->dirty) {
            line->dirty = false;
            --dirtyLines;
        }
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = find(addr);
        if (line == nullptr)
            return false;
        const bool was_dirty = line->dirty;
        if (was_dirty)
            --dirtyLines;
        line->valid = false;
        line->dirty = false;
        return was_dirty;
    }

    void
    invalidateAll()
    {
        for (auto &line : lines_) {
            line.valid = false;
            line.dirty = false;
        }
        dirtyLines = 0;
    }

    std::vector<std::pair<Addr, bool>>
    validLines() const
    {
        std::vector<std::pair<Addr, bool>> out;
        for (const auto &line : lines_)
            if (line.valid)
                out.emplace_back(line.tag, line.dirty);
        return out;
    }

    template <typename Pred>
    std::uint64_t
    cleanIf(Pred pred)
    {
        std::uint64_t cleaned = 0;
        for (auto &line : lines_) {
            if (line.valid && line.dirty && pred(line.tag)) {
                line.dirty = false;
                --dirtyLines;
                ++cleaned;
            }
        }
        return cleaned;
    }

    std::uint64_t hits = 0, misses = 0, fills = 0, evictions = 0,
                  dirtyEvictions = 0, dirtyLines = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setOf(Addr addr) const
    {
        return blockOf(addr) & (numSets_ - 1);
    }

    Line *
    find(Addr addr)
    {
        const Addr tag = blockAddr(blockOf(addr));
        Line *set = &lines_[setOf(addr) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        return nullptr;
    }

    unsigned ways_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

std::vector<std::pair<Addr, bool>>
linesOf(const Cache &c)
{
    std::vector<std::pair<Addr, bool>> out;
    c.forEachLine([&](Addr a, bool d) { out.emplace_back(a, d); });
    return out;
}

void
expectSameResult(const AccessResult &got, const AccessResult &want,
                 std::size_t op)
{
    EXPECT_EQ(got.hit, want.hit) << "op " << op;
    EXPECT_EQ(got.evictedValid, want.evictedValid) << "op " << op;
    EXPECT_EQ(got.evictedDirty, want.evictedDirty) << "op " << op;
    EXPECT_EQ(got.evictedAddr, want.evictedAddr) << "op " << op;
}

void
expectSameState(const Cache &c, const ReferenceCache &ref, std::size_t op)
{
    const StatGroup &s = c.stats();
    ASSERT_EQ(s.get("hits"), ref.hits) << "op " << op;
    ASSERT_EQ(s.get("misses"), ref.misses) << "op " << op;
    ASSERT_EQ(s.get("fills"), ref.fills) << "op " << op;
    ASSERT_EQ(s.get("evictions"), ref.evictions) << "op " << op;
    ASSERT_EQ(s.get("dirty_evictions"), ref.dirtyEvictions) << "op " << op;
    ASSERT_EQ(c.dirtyLines(), ref.dirtyLines) << "op " << op;
}

struct EquivalenceCase
{
    const char *label;
    CacheConfig config;
};

// Named printer: gtest's default byte dump would print the label's
// heap pointer into the listed test name.
void
PrintTo(const EquivalenceCase &c, std::ostream *os)
{
    *os << c.label;
}

class CacheEquivalence : public ::testing::TestWithParam<EquivalenceCase>
{
};

TEST_P(CacheEquivalence, MatchesArrayOfLinesModel)
{
    const CacheConfig &cfg = GetParam().config;
    Cache c(cfg);
    ReferenceCache ref(cfg);
    Rng rng(0xcace ^ cfg.sizeBytes ^ cfg.ways);

    // Up to 16 sets, each drawing from twice its ways in blocks, keep
    // the drawn sets under replacement pressure at every geometry;
    // byte offsets exercise block alignment.
    const std::uint64_t sets = c.lines() / cfg.ways;
    const std::uint64_t used_sets = std::min<std::uint64_t>(sets, 16);
    auto draw = [&] {
        const std::uint64_t set = rng.below(used_sets) * (sets / used_sets);
        const std::uint64_t tag = rng.below(2 * cfg.ways);
        return blockAddr(tag * sets + set) + rng.below(kBlockSize);
    };

    constexpr std::size_t kOps = 60000;
    for (std::size_t op = 0; op < kOps; ++op) {
        const Addr a = draw();
        const std::uint64_t kind = rng.below(1000);
        if (kind < 350) {
            const bool dirty = rng.below(2) != 0;
            ASSERT_EQ(c.access(a, dirty), ref.access(a, dirty)) << op;
        } else if (kind < 600) {
            const bool dirty = rng.below(2) != 0;
            if (ref.contains(a))
                ASSERT_TRUE(c.contains(a)) << op;
            else
                expectSameResult(c.insert(a, dirty),
                                 ref.insert(a, dirty), op);
        } else if (kind < 850) {
            const bool dirty = rng.below(2) != 0;
            expectSameResult(c.install(a, dirty), ref.install(a, dirty),
                             op);
        } else if (kind < 900) {
            c.clean(a);
            ref.clean(a);
        } else if (kind < 960) {
            ASSERT_EQ(c.invalidate(a), ref.invalidate(a)) << op;
        } else if (kind < 990) {
            ASSERT_EQ(c.isDirty(a), ref.isDirty(a)) << op;
            ASSERT_EQ(c.contains(a), ref.contains(a)) << op;
        } else if (kind < 998) {
            // Clean a random residue class of block numbers.
            const std::uint64_t mod = 2 + rng.below(5);
            const std::uint64_t rem = rng.below(mod);
            auto pred = [&](Addr x) { return blockOf(x) % mod == rem; };
            ASSERT_EQ(c.cleanIf(pred), ref.cleanIf(pred)) << op;
        } else if (rng.below(8) == 0) {
            c.invalidateAll();
            ref.invalidateAll();
        }
        expectSameState(c, ref, op);
        if (HasFailure())
            return;
        if (op % 4096 == 0) {
            auto got = linesOf(c);
            auto want = ref.validLines();
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            ASSERT_EQ(got, want) << "op " << op;
        }
    }
    auto got = linesOf(c);
    auto want = ref.validLines();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    EXPECT_GT(ref.evictions, 0ull);
    EXPECT_GT(ref.dirtyEvictions, 0ull);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheEquivalence,
    ::testing::Values(
        EquivalenceCase{"direct_mapped", {"dm", 4 * 1024, 1, 1}},
        EquivalenceCase{"mcache_64k_8way", {"mcache", 64 * 1024, 8, 2}},
        EquivalenceCase{"l2_1m_16way", {"l2", 1024 * 1024, 16, 20}}),
    [](const ::testing::TestParamInfo<EquivalenceCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
} // namespace amnt::cache
