#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>

#include "util/check.h"

namespace car::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesSpaceAndEqualsSyntax) {
  const auto f = parse({"--k", "6", "--m=3", "--name", "cfs2"});
  EXPECT_EQ(f.get_int("k", 0), 6);
  EXPECT_EQ(f.get_int("m", 0), 3);
  EXPECT_EQ(f.get("name"), "cfs2");
  EXPECT_TRUE(f.has("k"));
  EXPECT_FALSE(f.has("z"));
}

TEST(Flags, BooleanSwitches) {
  const auto f = parse({"--csv", "--verbose", "--flag=false"});
  EXPECT_TRUE(f.get_bool("csv"));
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("flag"));
  EXPECT_FALSE(f.get_bool("absent"));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, BooleanBeforeAnotherFlagDoesNotSwallowIt) {
  const auto f = parse({"--csv", "--k", "4"});
  EXPECT_TRUE(f.get_bool("csv"));
  EXPECT_EQ(f.get_int("k", 0), 4);
}

TEST(Flags, PositionalArgumentsAreCollectedInOrder) {
  const auto f = parse({"traffic", "--k", "4", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "traffic");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, FallbacksApplyWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get("x", "def"), "def");
  EXPECT_EQ(f.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get_size_list("x", {1, 2}), (std::vector<std::size_t>{1, 2}));
}

TEST(Flags, NumericParsing) {
  const auto f = parse({"--rate", "2.5", "--n", "7"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 2.5);
  EXPECT_EQ(f.get_int("n", 0), 7);
  EXPECT_THROW((void)f.get_int("rate", 0), std::invalid_argument);
  const auto bad = parse({"--n", "7x"});
  EXPECT_THROW((void)bad.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)bad.get_double("n", 0), std::invalid_argument);
}

TEST(Flags, SizeListParsing) {
  const auto f = parse({"--racks", "4,3,3"});
  EXPECT_EQ(f.get_size_list("racks", {}),
            (std::vector<std::size_t>{4, 3, 3}));
  const auto bad = parse({"--racks", "4,x"});
  EXPECT_THROW(bad.get_size_list("racks", {}), std::invalid_argument);
}

TEST(Flags, RejectUnreadNamesEveryFlagNoGetterAskedFor) {
  const auto f = parse({"--shards", "4", "--shard", "4", "--stream"});
  EXPECT_TRUE(f.has("stream"));  // a presence query is not a read
  EXPECT_EQ(f.get_int("shards", 1), 4);
  try {
    f.reject_unread("carctl emulate");
    FAIL() << "unread --shard and --stream were accepted";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("carctl emulate"), std::string::npos) << what;
    EXPECT_NE(what.find("--shard "), std::string::npos) << what;
    EXPECT_NE(what.find("--stream"), std::string::npos) << what;
    EXPECT_EQ(what.find("--shards"), std::string::npos) << what;
  }
  // Asking counts even when the getter falls back or the value is unused.
  (void)f.get_bool("shard");
  (void)f.get("stream");
  (void)f.get("absent", "x");
  EXPECT_NO_THROW(f.reject_unread("carctl emulate"));
}

TEST(Flags, BareDoubleDashRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace car::util
