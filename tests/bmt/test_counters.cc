#include <gtest/gtest.h>

#include <cstdint>

#include "bmt/counters.hh"
#include "common/bitops.hh"
#include "common/rng.hh"

namespace amnt::bmt
{
namespace
{

TEST(CounterBlock, StartsZero)
{
    const CounterBlock cb;
    EXPECT_TRUE(cb.isZero());
    EXPECT_EQ(cb.major, 0ull);
}

TEST(CounterBlock, IncrementIsolatedPerSlot)
{
    CounterBlock cb;
    EXPECT_FALSE(cb.increment(3));
    EXPECT_FALSE(cb.increment(3));
    EXPECT_EQ(cb.minors[3], 2);
    EXPECT_EQ(cb.minors[2], 0);
    EXPECT_FALSE(cb.isZero());
}

TEST(CounterBlock, OverflowAtSevenBits)
{
    CounterBlock cb;
    for (int i = 0; i < 127; ++i)
        EXPECT_FALSE(cb.increment(0)) << "iteration " << i;
    EXPECT_EQ(cb.minors[0], kMinorCounterMax);
    EXPECT_TRUE(cb.increment(0)); // would exceed 7 bits
    cb.overflowReset();
    EXPECT_EQ(cb.major, 1ull);
    for (auto m : cb.minors)
        EXPECT_EQ(m, 0);
}

TEST(CounterBlock, SerializeIs64Bytes)
{
    CounterBlock cb;
    cb.major = 0x1122334455667788ULL;
    const auto raw = cb.serialize();
    EXPECT_EQ(raw.size(), kBlockSize);
    EXPECT_EQ(raw[0], 0x88); // little-endian major
}

TEST(CounterBlock, SerializeRoundTripDense)
{
    CounterBlock cb;
    cb.major = 0xdeadbeefcafe1234ULL;
    for (unsigned i = 0; i < kCounterArity; ++i)
        cb.minors[i] = static_cast<std::uint8_t>((i * 37 + 5) & 0x7f);
    EXPECT_EQ(CounterBlock::deserialize(cb.serialize()), cb);
}

TEST(CounterBlock, SerializeRoundTripExtremes)
{
    CounterBlock cb;
    for (unsigned i = 0; i < kCounterArity; ++i)
        cb.minors[i] = i % 2 ? kMinorCounterMax : 0;
    EXPECT_EQ(CounterBlock::deserialize(cb.serialize()), cb);
}

TEST(CounterBlock, MinorsUseExactly56Bytes)
{
    // Setting only the last minor must not touch the major bytes and
    // must land inside the trailing 56-byte area.
    CounterBlock cb;
    cb.minors[63] = kMinorCounterMax;
    const auto raw = cb.serialize();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(raw[static_cast<std::size_t>(i)], 0);
    EXPECT_NE(raw[63], 0);
    EXPECT_EQ(CounterBlock::deserialize(raw), cb);
}

TEST(CounterBlock, ZeroBlockSerializesToZeros)
{
    const CounterBlock cb;
    for (auto b : cb.serialize())
        EXPECT_EQ(b, 0);
}

/** The bit-at-a-time packer the word-at-a-time serialize replaced. */
std::array<std::uint8_t, kBlockSize>
referenceSerialize(const CounterBlock &cb)
{
    std::array<std::uint8_t, kBlockSize> out{};
    store64le(out.data(), cb.major);
    std::size_t bitpos = 0;
    std::uint8_t *base = out.data() + 8;
    for (unsigned i = 0; i < kCounterArity; ++i) {
        const std::uint32_t v = cb.minors[i] & kMinorCounterMax;
        const std::size_t byte = bitpos >> 3;
        const unsigned shift = bitpos & 7;
        base[byte] |= static_cast<std::uint8_t>(v << shift);
        if (shift > 1)
            base[byte + 1] |= static_cast<std::uint8_t>(v >> (8 - shift));
        bitpos += kMinorCounterBits;
    }
    return out;
}

/** The bit-at-a-time parser the word-at-a-time deserialize replaced. */
CounterBlock
referenceDeserialize(const std::array<std::uint8_t, kBlockSize> &raw)
{
    CounterBlock cb;
    cb.major = load64le(raw.data());
    std::size_t bitpos = 0;
    const std::uint8_t *base = raw.data() + 8;
    for (unsigned i = 0; i < kCounterArity; ++i) {
        const std::size_t byte = bitpos >> 3;
        const unsigned shift = bitpos & 7;
        std::uint32_t v = base[byte] >> shift;
        if (shift > 1)
            v |= static_cast<std::uint32_t>(base[byte + 1]) << (8 - shift);
        cb.minors[i] = static_cast<std::uint8_t>(v & kMinorCounterMax);
        bitpos += kMinorCounterBits;
    }
    return cb;
}

TEST(CounterBlock, PackingMatchesBitLoopReference)
{
    // Fill 0: every minor 0; fill 1: every minor 127; then random
    // 0/127 mixes (even fills) and random values (odd fills).
    Rng rng(0xc0de);
    auto minor = [&rng](int fill) -> std::uint8_t {
        if (fill < 2)
            return fill == 0 ? 0 : kMinorCounterMax;
        if (fill % 2 == 0)
            return rng.below(2) != 0 ? kMinorCounterMax : 0;
        return static_cast<std::uint8_t>(rng.below(kMinorCounterMax + 1u));
    };
    const std::uint64_t majors[] = {0, 1, UINT64_MAX,
                                    0x0123456789abcdefULL};
    for (std::uint64_t major : majors) {
        for (int fill = 0; fill < 200; ++fill) {
            CounterBlock cb;
            cb.major = major;
            for (auto &m : cb.minors)
                m = minor(fill);
            const auto raw = cb.serialize();
            ASSERT_EQ(raw, referenceSerialize(cb))
                << "major " << major << " fill " << fill;
            ASSERT_EQ(CounterBlock::deserialize(raw), cb);
        }
    }
}

TEST(CounterBlock, ParsingMatchesBitLoopReference)
{
    // Arbitrary bytes, not only canonical encodings: both parsers must
    // read the same minors out of any 64 B block.
    Rng rng(0xb17e);
    for (int round = 0; round < 500; ++round) {
        std::array<std::uint8_t, kBlockSize> raw{};
        for (auto &b : raw)
            b = static_cast<std::uint8_t>(rng.next());
        ASSERT_EQ(CounterBlock::deserialize(raw),
                  referenceDeserialize(raw))
            << "round " << round;
    }
}

} // namespace
} // namespace amnt::bmt
