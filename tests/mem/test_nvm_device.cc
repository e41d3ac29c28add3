#include <gtest/gtest.h>

#include "mem/nvm_device.hh"

namespace amnt::mem
{
namespace
{

TEST(NvmDevice, UnwrittenBlocksReadZero)
{
    NvmDevice nvm(1 << 20);
    Block b;
    b.fill(0xff);
    nvm.readBlock(0x100, b);
    for (auto byte : b)
        EXPECT_EQ(byte, 0);
}

TEST(NvmDevice, WriteReadRoundTrip)
{
    NvmDevice nvm(1 << 20);
    Block in;
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i);
    nvm.writeBlock(0x40, in);
    Block out;
    nvm.readBlock(0x40, out);
    EXPECT_EQ(in, out);
}

TEST(NvmDevice, BlockAlignmentSharesStorage)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[0] = 0xaa;
    nvm.writeBlock(0x80, in);
    Block out;
    nvm.readBlock(0x80 + 17, out); // same block, unaligned byte addr
    EXPECT_EQ(out[0], 0xaa);
}

TEST(NvmDevice, TrafficCounting)
{
    NvmDevice nvm(1 << 20);
    Block b{};
    nvm.writeBlock(0, b);
    nvm.readBlock(0, b);
    nvm.touchRead(64);
    nvm.touchWrite(64);
    EXPECT_EQ(nvm.reads(), 2ull);
    EXPECT_EQ(nvm.writes(), 2ull);
}

TEST(NvmDevice, PeekDoesNotCount)
{
    NvmDevice nvm(1 << 20);
    Block b{};
    nvm.peek(0, b);
    EXPECT_EQ(nvm.reads(), 0ull);
}

TEST(NvmDevice, ContentsSurviveCrash)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[5] = 0x55;
    nvm.writeBlock(0x1000, in);
    nvm.crash();
    Block out;
    nvm.readBlock(0x1000, out);
    EXPECT_EQ(out[5], 0x55);
}

TEST(NvmDevice, TamperFlipsBits)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[3] = 0x0f;
    nvm.writeBlock(0, in);
    EXPECT_TRUE(nvm.tamper(0, 3, 0xff));
    Block out;
    nvm.readBlock(0, out);
    EXPECT_EQ(out[3], 0xf0);
}

TEST(NvmDevice, TamperUnwrittenBlock)
{
    NvmDevice nvm(1 << 20);
    EXPECT_FALSE(nvm.tamper(0x200, 0, 0x01));
    Block out;
    nvm.readBlock(0x200, out);
    EXPECT_EQ(out[0], 0x01);
}

TEST(NvmDevice, PersistRecordsSealAndReadReturnsIt)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[7] = 0x77;
    nvm.persist(0x140, in, 0xfeedULL);
    Block out;
    EXPECT_EQ(nvm.readBlock(0x140, out), 0xfeedULL);
    EXPECT_EQ(out, in);
    EXPECT_EQ(nvm.writes(), 1ull);
    EXPECT_EQ(nvm.reads(), 1ull);
}

TEST(NvmDevice, NeverWrittenBlockHasSealZero)
{
    NvmDevice nvm(1 << 20);
    Block out;
    EXPECT_EQ(nvm.readBlock(0x300, out), 0ull);
    EXPECT_EQ(out, Block{});
}

TEST(NvmDevice, RawWriteAndTamperKeepTheSeal)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[0] = 0x11;
    nvm.persist(0x40, in, 42);

    Block replay{};
    replay[0] = 0x22;
    nvm.writeBlock(0x40, replay);
    Block out;
    EXPECT_EQ(nvm.readBlock(0x40, out), 42ull);
    EXPECT_EQ(out, replay);

    // An all-zero raw write does not reset the seal either.
    nvm.writeBlock(0x40, Block{});
    EXPECT_EQ(nvm.readBlock(0x40, out), 42ull);

    EXPECT_TRUE(nvm.tamper(0x40, 5, 0x08));
    EXPECT_EQ(nvm.readBlock(0x40, out), 42ull);
    EXPECT_EQ(out[5], 0x08);

    // A raw write or a tamper never seals a block the engine did not
    // persist.
    nvm.writeBlock(0x80, in);
    EXPECT_EQ(nvm.readBlock(0x80, out), 0ull);
    EXPECT_FALSE(nvm.tamper(0xc0, 0, 0x01));
    EXPECT_EQ(nvm.readBlock(0xc0, out), 0ull);
}

TEST(NvmDevice, JournalRollbackRestoresBytesAndSeal)
{
    NvmDevice nvm(1 << 20);
    Block committed{};
    committed[1] = 0xa1;
    nvm.persist(0x40, committed, 7);
    nvm.journalEnable();
    EXPECT_FALSE(nvm.journalDirty());

    // The open epoch re-persists the present block twice (only the
    // first write captures a pre-image) and persists a fresh block.
    Block next{};
    next[1] = 0xb2;
    nvm.persist(0x40, next, 8);
    next[1] = 0xc3;
    nvm.persist(0x40, next, 9);
    nvm.persist(0x80, next, 10);
    EXPECT_TRUE(nvm.journalDirty());
    EXPECT_EQ(nvm.journalCaptures(), 2ull);
    EXPECT_EQ(nvm.blocksTouched(), 2ull);

    nvm.journalRollback();
    EXPECT_FALSE(nvm.journalDirty());
    EXPECT_EQ(nvm.journalRollbacks(), 1ull);
    Block out;
    EXPECT_EQ(nvm.readBlock(0x40, out), 7ull);
    EXPECT_EQ(out, committed);
    // The fresh block is erased, not left behind as a zero record.
    EXPECT_EQ(nvm.blocksTouched(), 1ull);
    EXPECT_EQ(nvm.readBlock(0x80, out), 0ull);
    EXPECT_EQ(out, Block{});
}

TEST(NvmDevice, JournalClearCommitsTheEpoch)
{
    NvmDevice nvm(1 << 20);
    nvm.journalEnable();
    Block b{};
    b[2] = 0x5a;
    nvm.persist(0x40, b, 3);
    nvm.journalClear();
    EXPECT_FALSE(nvm.journalDirty());
    nvm.journalRollback();
    Block out;
    EXPECT_EQ(nvm.readBlock(0x40, out), 3ull);
    EXPECT_EQ(out, b);
}

TEST(NvmDevice, ForEachBlockInRange)
{
    NvmDevice nvm(1 << 20);
    Block b{};
    nvm.writeBlock(0x000, b);
    nvm.writeBlock(0x100, b);
    nvm.writeBlock(0x800, b);
    int in_range = 0;
    nvm.forEachBlockIn(0x100, 0x800,
                       [&](Addr, const Block &) { ++in_range; });
    EXPECT_EQ(in_range, 1);
    EXPECT_EQ(nvm.blocksTouched(), 3ull);
}

} // namespace
} // namespace amnt::mem
