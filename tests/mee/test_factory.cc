#include <gtest/gtest.h>

#include "core/amnt.hh"
#include "core/protocol_registry.hh"
#include "mee/mee_test_util.hh"

namespace amnt
{
namespace
{

TEST(Factory, MakesEveryProtocol)
{
    const mee::MeeConfig cfg = test::smallConfig();
    for (mee::Protocol p : core::allProtocols()) {
        mem::NvmDevice nvm(
            mem::MemoryMap(cfg.dataBytes).deviceBytes());
        auto engine = core::makeEngine(p, cfg, nvm);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->protocol(), p);
        EXPECT_EQ(engine->strategy().id(), p);
    }
}

TEST(Factory, ProtocolNamesMatchFigureLabels)
{
    EXPECT_STREQ(protocolName(mee::Protocol::Volatile), "volatile");
    EXPECT_STREQ(protocolName(mee::Protocol::Strict), "strict");
    EXPECT_STREQ(protocolName(mee::Protocol::Leaf), "leaf");
    EXPECT_STREQ(protocolName(mee::Protocol::Osiris), "osiris");
    EXPECT_STREQ(protocolName(mee::Protocol::Anubis), "anubis");
    EXPECT_STREQ(protocolName(mee::Protocol::Bmf), "bmf");
    EXPECT_STREQ(protocolName(mee::Protocol::Amnt), "amnt");
    EXPECT_STREQ(protocolName(mee::Protocol::Phoenix), "phoenix");
    EXPECT_STREQ(protocolName(mee::Protocol::Stit), "stit");
}

TEST(Factory, EngineRejectsUndersizedDevice)
{
    const mee::MeeConfig cfg = test::smallConfig();
    mem::NvmDevice nvm(cfg.dataBytes); // no room for metadata
    EXPECT_EXIT(core::makeEngine(mee::Protocol::Leaf, cfg, nvm),
                ::testing::ExitedWithCode(1), "smaller than required");
}

TEST(Factory, AmntRejectsBadSubtreeLevel)
{
    mee::MeeConfig cfg = test::smallConfig();
    cfg.amntSubtreeLevel = 99;
    mem::NvmDevice nvm(mem::MemoryMap(cfg.dataBytes).deviceBytes());
    EXPECT_EXIT(core::makeEngine(mee::Protocol::Amnt, cfg, nvm),
                ::testing::ExitedWithCode(1), "subtree level");
}

TEST(Factory, EngineRejectsNullStrategy)
{
    const mee::MeeConfig cfg = test::smallConfig();
    mem::NvmDevice nvm(mem::MemoryMap(cfg.dataBytes).deviceBytes());
    EXPECT_EXIT(mee::MemoryEngine(cfg, nvm, nullptr),
                ::testing::ExitedWithCode(1), "protocol strategy");
}

} // namespace
} // namespace amnt
