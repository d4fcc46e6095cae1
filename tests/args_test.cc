/**
 * @file
 * Unit tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "common/args.hh"

namespace wg {
namespace {

constexpr FlagSpec kFlags[] = {
    {"name", FlagKind::String, "default", "a string"},
    {"count", FlagKind::Int, "7", "an int"},
    {"ratio", FlagKind::Double, "0.5", "a double"},
    {"verbose", FlagKind::Bool, "", "a bool"},
};

ArgParser
makeParser()
{
    return ArgParser("prog", "test program", kFlags);
}

bool
parse(ArgParser& args, std::initializer_list<const char*> argv_tail)
{
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), argv_tail);
    return args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, DefaultsApply)
{
    ArgParser args = makeParser();
    ASSERT_TRUE(parse(args, {}));
    EXPECT_EQ(args.getString("name"), "default");
    EXPECT_EQ(args.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("ratio"), 0.5);
    EXPECT_FALSE(args.getBool("verbose"));
    EXPECT_FALSE(args.given("name"));
}

TEST(Args, SpaceSeparatedValues)
{
    ArgParser args = makeParser();
    ASSERT_TRUE(parse(args, {"--name", "x", "--count", "42"}));
    EXPECT_EQ(args.getString("name"), "x");
    EXPECT_EQ(args.getInt("count"), 42);
    EXPECT_TRUE(args.given("name"));
    EXPECT_TRUE(args.given("count"));
}

TEST(Args, EqualsSyntax)
{
    ArgParser args = makeParser();
    ASSERT_TRUE(parse(args, {"--name=y", "--ratio=0.25"}));
    EXPECT_EQ(args.getString("name"), "y");
    EXPECT_DOUBLE_EQ(args.getDouble("ratio"), 0.25);
}

TEST(Args, BoolFlagPresence)
{
    ArgParser args = makeParser();
    ASSERT_TRUE(parse(args, {"--verbose"}));
    EXPECT_TRUE(args.getBool("verbose"));
}

TEST(Args, NegativeNumbers)
{
    ArgParser args = makeParser();
    ASSERT_TRUE(parse(args, {"--count", "-3", "--ratio", "-1.5"}));
    EXPECT_EQ(args.getInt("count"), -3);
    EXPECT_DOUBLE_EQ(args.getDouble("ratio"), -1.5);
}

TEST(Args, CountRejectsNegativeValues)
{
    // A Count flag lands in an unsigned type, where -1 would wrap to
    // a huge size or cycle budget.
    static constexpr FlagSpec kCounts[] = {
        {"sms", FlagKind::Count, "6", "a count"}};
    ArgParser args("prog", "", kCounts);
    ASSERT_TRUE(parse(args, {"--sms", "0"}));
    EXPECT_EQ(args.getCount("sms"), 0u);
    ArgParser negative("prog", "", kCounts);
    EXPECT_FALSE(parse(negative, {"--sms", "-1"}));
    EXPECT_FALSE(negative.helpRequested());
    ArgParser equals("prog", "", kCounts);
    EXPECT_FALSE(parse(equals, {"--sms=-5"}));
}

TEST(Args, CountRejectsValuesAboveItsBound)
{
    // The row's bound is the type the value is narrowed into, so a
    // value above it would truncate instead of being used.
    static constexpr FlagSpec kCounts[] = {
        {"port", FlagKind::Count, "7421", "a port", 65535},
        {"budget", FlagKind::Count, "0", "an unbounded count"}};
    ArgParser at("prog", "", kCounts);
    ASSERT_TRUE(parse(at, {"--port", "65535"}));
    EXPECT_EQ(at.getCount("port"), 65535u);
    ArgParser over("prog", "", kCounts);
    EXPECT_FALSE(parse(over, {"--port=65536"}));
    EXPECT_FALSE(over.helpRequested());
    // Past LLONG_MAX is over every bound, not a saturated value.
    ArgParser huge("prog", "", kCounts);
    EXPECT_FALSE(parse(huge, {"--budget", "99999999999999999999"}));
    ArgParser most("prog", "", kCounts);
    ASSERT_TRUE(parse(most, {"--budget", "9223372036854775807"}));
    EXPECT_EQ(most.getCount("budget"), 9223372036854775807u);
}

TEST(Args, SharedTableIsDeclaredAfterTheToolsOwn)
{
    static constexpr FlagSpec kShared[] = {
        {"seed", FlagKind::Int, "1", "a shared int"}};
    ArgParser args("prog", "", kFlags, kShared);
    ASSERT_TRUE(parse(args, {"--seed", "-4", "--count", "3"}));
    EXPECT_EQ(args.getInt("seed"), -4);
    EXPECT_EQ(args.getInt("count"), 3);
    const std::string usage = args.usage();
    EXPECT_LT(usage.find("--verbose"), usage.find("--seed"));
}

TEST(Args, PositionalArguments)
{
    ArgParser args = makeParser();
    ASSERT_TRUE(parse(args, {"one", "--count", "2", "two"}));
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "one");
    EXPECT_EQ(args.positional()[1], "two");
}

TEST(Args, UnknownFlagFails)
{
    ArgParser args = makeParser();
    EXPECT_FALSE(parse(args, {"--nope", "1"}));
}

TEST(Args, MissingValueFails)
{
    ArgParser args = makeParser();
    EXPECT_FALSE(parse(args, {"--count"}));
}

TEST(Args, BadNumericValueFails)
{
    ArgParser args = makeParser();
    EXPECT_FALSE(parse(args, {"--count", "abc"}));
    ArgParser args2 = makeParser();
    EXPECT_FALSE(parse(args2, {"--ratio", "1.2.3"}));
    // An Int past the 64-bit range has no value to return.
    ArgParser args3 = makeParser();
    EXPECT_FALSE(parse(args3, {"--count", "-99999999999999999999"}));
}

TEST(Args, HelpReturnsFalse)
{
    ArgParser args = makeParser();
    EXPECT_FALSE(parse(args, {"--help"}));
    EXPECT_TRUE(args.helpRequested());
}

TEST(Args, BadFlagIsNotAHelpRequest)
{
    ArgParser args = makeParser();
    EXPECT_FALSE(parse(args, {"--no-such-flag"}));
    EXPECT_FALSE(args.helpRequested());
}

TEST(Args, UsageListsFlags)
{
    ArgParser args = makeParser();
    std::string usage = args.usage();
    EXPECT_NE(usage.find("--name"), std::string::npos);
    EXPECT_NE(usage.find("--count"), std::string::npos);
    EXPECT_NE(usage.find("a double"), std::string::npos);
    EXPECT_NE(usage.find("prog"), std::string::npos);

    static constexpr FlagSpec kCounts[] = {
        {"port", FlagKind::Count, "7421", "a port", 65535}};
    EXPECT_NE(ArgParser("prog", "", kCounts).usage().find(
                  "--port <7421> (max 65535)"),
              std::string::npos);
}

TEST(ArgsDeath, UndeclaredAccessPanics)
{
    ArgParser args = makeParser();
    EXPECT_DEATH(args.getString("ghost"), "never declared");
}

TEST(ArgsDeath, DuplicateDeclarationPanics)
{
    static constexpr FlagSpec kShared[] = {
        {"name", FlagKind::String, "", "declared by the tool as well"}};
    EXPECT_DEATH(ArgParser("prog", "", kFlags, kShared),
                 "declared twice");
}

TEST(ArgsDeath, WrongTypeAccessPanics)
{
    ArgParser args = makeParser();
    EXPECT_DEATH(args.getInt("name"), "wrong type");
}

} // namespace
} // namespace wg
