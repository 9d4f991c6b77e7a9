// pcieb::parse_unsigned and pcieb::parse_time (common/parse.hpp), the one
// integer and the one time reader behind fault plans, recovery policies
// and the pciebench command line. parse_unsigned is base 0 like strtoull,
// but the whole string must be the number and the value must fit `max` —
// nothing is wrapped, saturated or ignored. parse_time takes decimal
// digits with an optional fraction and unit, and nothing else.
#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace pcieb {
namespace {

TEST(ParseUnsigned, AcceptsDecimalHexAndOctal) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("64"), 64u);
  EXPECT_EQ(parse_unsigned("0x40"), 64u);
  EXPECT_EQ(parse_unsigned("0XC4A05"), 0xc4a05u);
  EXPECT_EQ(parse_unsigned("0100"), 64u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_unsigned("0xffffffffffffffff"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsSignsSpacesAndTrailingText) {
  for (const char* s : {"", "-1", "+5", " 3", "3 ", "\t7", "12abc", "0x",
                        "1.5", "1e3", "8K", "nan", "0x1g", "09"}) {
    EXPECT_FALSE(parse_unsigned(s).has_value()) << "'" << s << "'";
  }
}

TEST(ParseUnsigned, RejectsOverflowInsteadOfSaturating) {
  EXPECT_FALSE(parse_unsigned("18446744073709551616").has_value());
  EXPECT_FALSE(parse_unsigned("99999999999999999999999").has_value());
  EXPECT_FALSE(parse_unsigned("0x10000000000000000").has_value());
}

TEST(ParseUnsigned, ChecksTheRangeBeforeAnyNarrowing) {
  constexpr std::uint64_t u32 = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(parse_unsigned("4294967295", u32), u32);
  EXPECT_FALSE(parse_unsigned("4294967296", u32).has_value());
  EXPECT_FALSE(parse_unsigned("4294967297", u32).has_value());
  EXPECT_EQ(parse_unsigned("255", 255), 255u);
  EXPECT_FALSE(parse_unsigned("0x100", 255).has_value());
  EXPECT_EQ(parse_unsigned("0", 0), 0u);
  EXPECT_FALSE(parse_unsigned("1", 0).has_value());
}

TEST(ParseTime, AcceptsDigitsFractionAndUnit) {
  EXPECT_EQ(parse_time("0"), 0);
  EXPECT_EQ(parse_time("12"), 12'000);  // bare = ns
  EXPECT_EQ(parse_time("12ns"), 12'000);
  EXPECT_EQ(parse_time("123ps"), 123);
  EXPECT_EQ(parse_time("3.5us"), 3'500'000);
  EXPECT_EQ(parse_time("2ms"), 2'000'000'000);
  EXPECT_EQ(parse_time("1s"), 1'000'000'000'000);
  EXPECT_EQ(parse_time("0.0005ns"), 1);  // rounds to the nearest ps
  EXPECT_EQ(parse_time("007us"), 7'000'000);
}

TEST(ParseTime, ClampsPastThePicosRangeToTheSentinel) {
  constexpr Picos kMax = std::numeric_limits<Picos>::max();
  EXPECT_EQ(parse_time(std::to_string(kMax) + "ps"), kMax);
  EXPECT_EQ(parse_time("99999999999s"), kMax);
  EXPECT_EQ(parse_time("99999999999999999999999999999ps"), kMax);
}

TEST(ParseTime, RejectsSignsSpacesExponentsHexInfAndNan) {
  for (const char* s :
       {"", "+5us", " 5us", "5us ", "5 us", "\t5", "1e3", "1e-3us", "1E3ns",
        "0x10", "0x10us", "inf", "infinity", "nan", "-nan", ".5us", "5.",
        "5.us", "us", "5uss", "5Us", "1.2.3ns"}) {
    EXPECT_FALSE(parse_time(s).has_value()) << "'" << s << "'";
  }
}

TEST(ParseTime, SaysWhyATimeIsRejected) {
  std::string why;
  EXPECT_FALSE(parse_time("-5us", &why));
  EXPECT_EQ(why, "negative time");
  EXPECT_FALSE(parse_time("2parsecs", &why));
  EXPECT_EQ(why, "bad time unit 'parsecs'");
  EXPECT_FALSE(parse_time("1e-3us", &why));
  EXPECT_EQ(why, "bad time unit 'e-3us'");
  EXPECT_FALSE(parse_time("inf", &why));
  EXPECT_EQ(why, "bad time");
  EXPECT_FALSE(parse_time("+5us", &why));
  EXPECT_EQ(why, "bad time");
}

}  // namespace
}  // namespace pcieb
