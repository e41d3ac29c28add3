/**
 * Strict integer parsing: well-formed values parse, and every
 * malformed shape that std::strtoull would silently mangle (suffixed
 * units, signs, empty strings, overflow) is rejected. envU64 falls
 * back to the caller's default instead of quietly truncating a
 * benchmark to a handful of instructions; parseU64 and flagU64 also
 * reject values above the range of the field they fill.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "common/env.hh"

using namespace amnt;

namespace
{

constexpr const char *kVar = "AMNT_TEST_ENV_U64";

class EnvU64 : public ::testing::Test
{
  protected:
    void TearDown() override { ::unsetenv(kVar); }

    void set(const char *value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvU64, UnsetReturnsFallback)
{
    ::unsetenv(kVar);
    EXPECT_EQ(envU64(kVar, 42), 42u);
}

TEST_F(EnvU64, ParsesPlainDecimal)
{
    set("2000000");
    EXPECT_EQ(envU64(kVar, 1), 2'000'000u);
    set("0");
    EXPECT_EQ(envU64(kVar, 1), 0u);
    set("18446744073709551615"); // 2^64 - 1
    EXPECT_EQ(envU64(kVar, 1), ~0ull);
}

TEST_F(EnvU64, AcceptsSurroundingSpaces)
{
    set("  123");
    EXPECT_EQ(envU64(kVar, 1), 123u);
}

TEST_F(EnvU64, RejectsUnitSuffix)
{
    set("2m"); // the motivating typo: 2m must not become 2
    EXPECT_EQ(envU64(kVar, 777), 777u);
    set("1e6");
    EXPECT_EQ(envU64(kVar, 777), 777u);
}

TEST_F(EnvU64, RejectsEmptyAndGarbage)
{
    set("");
    EXPECT_EQ(envU64(kVar, 5), 5u);
    set("   ");
    EXPECT_EQ(envU64(kVar, 5), 5u);
    set("abc");
    EXPECT_EQ(envU64(kVar, 5), 5u);
}

TEST_F(EnvU64, RejectsSigns)
{
    set("-1"); // strtoull would wrap this to 2^64-1
    EXPECT_EQ(envU64(kVar, 9), 9u);
    set("+4");
    EXPECT_EQ(envU64(kVar, 9), 9u);
}

TEST_F(EnvU64, RejectsOverflow)
{
    set("18446744073709551616"); // 2^64
    EXPECT_EQ(envU64(kVar, 11), 11u);
    set("99999999999999999999999999");
    EXPECT_EQ(envU64(kVar, 11), 11u);
}

constexpr std::uint64_t kUnsignedMax =
    std::numeric_limits<unsigned>::max();

TEST(ParseU64, AcceptsTheWholeRange)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("18446744073709551615"), ~0ull);
    EXPECT_EQ(parseU64("4294967295", kUnsignedMax), kUnsignedMax);
    EXPECT_EQ(parseU64("7", 7), 7u);
}

TEST(ParseU64, RejectsValuesAboveTheFieldsRange)
{
    // The value that wrapped `--shards` to 0 (the legacy engine).
    EXPECT_EQ(parseU64("4294967296", kUnsignedMax), std::nullopt);
    EXPECT_EQ(parseU64("8", 7), std::nullopt);
    EXPECT_EQ(parseU64("18446744073709551616"), std::nullopt);
}

TEST(ParseU64, RejectsMalformedText)
{
    for (const char *bad : {"", "  ", "-1", "+4", "2m", "1e6", "abc"})
        EXPECT_EQ(parseU64(bad), std::nullopt) << "'" << bad << "'";
}

TEST(FlagU64, ReturnsInRangeValues)
{
    EXPECT_EQ(flagU64("--ops", "300", kUnsignedMax), 300u);
    EXPECT_EQ(flagU64("--seed", "18446744073709551615"), ~0ull);
}

TEST(FlagU64Death, OverflowStopsNamingTheFlag)
{
    EXPECT_EXIT(flagU64("--shards", "4294967296", kUnsignedMax),
                ::testing::ExitedWithCode(1),
                "--shards wants a decimal integer in "
                "\\[0, 4294967295\\]");
    EXPECT_EXIT(flagU64("--seed", "18446744073709551616"),
                ::testing::ExitedWithCode(1), "--seed");
    EXPECT_EXIT(flagU64("--instr", "2m"), ::testing::ExitedWithCode(1),
                "got '2m'");
}

} // namespace
