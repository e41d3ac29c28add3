#include "bmt/counters.hh"

#include "common/bitops.hh"

namespace amnt::bmt
{

namespace
{

// The 64 seven-bit minors are one little-endian 448-bit string
// (minor i at bits [7i, 7i + 7)) after the 8-byte major, so every 8
// minors fill exactly 7 bytes: group g is the 56-bit word at byte
// 8 + 7g. Each group moves as one 64-bit word based one byte earlier,
// which keeps every access inside the 64-byte block; that word's low
// byte belongs to the preceding field and passes through unchanged.
constexpr std::size_t kMajorBytes = 8;
constexpr unsigned kGroupMinors = 8;
constexpr std::size_t kGroupBytes = kGroupMinors * kMinorCounterBits / 8;
constexpr unsigned kGroups = kCounterArity / kGroupMinors;

static_assert(kCounterArity % kGroupMinors == 0);
static_assert(kMajorBytes + kGroups * kGroupBytes == kBlockSize);

/** Start of the 64-bit word whose upper 7 bytes are group @p g. */
constexpr std::size_t
groupWordAt(unsigned g)
{
    return kMajorBytes - 1 + g * kGroupBytes;
}

} // namespace

std::array<std::uint8_t, kBlockSize>
CounterBlock::serialize() const
{
    std::array<std::uint8_t, kBlockSize> out{};
    store64le(out.data(), major);
    for (unsigned g = 0; g < kGroups; ++g) {
        std::uint64_t word = 0;
        for (unsigned k = 0; k < kGroupMinors; ++k)
            word |= static_cast<std::uint64_t>(
                        minors[g * kGroupMinors + k] & kMinorCounterMax)
                    << (k * kMinorCounterBits);
        std::uint8_t *p = out.data() + groupWordAt(g);
        store64le(p, (word << 8) | p[0]);
    }
    return out;
}

CounterBlock
CounterBlock::deserialize(const std::array<std::uint8_t, kBlockSize> &raw)
{
    CounterBlock cb;
    cb.major = load64le(raw.data());
    for (unsigned g = 0; g < kGroups; ++g) {
        const std::uint64_t word = load64le(raw.data() + groupWordAt(g)) >> 8;
        for (unsigned k = 0; k < kGroupMinors; ++k)
            cb.minors[g * kGroupMinors + k] = static_cast<std::uint8_t>(
                (word >> (k * kMinorCounterBits)) & kMinorCounterMax);
    }
    return cb;
}

} // namespace amnt::bmt
