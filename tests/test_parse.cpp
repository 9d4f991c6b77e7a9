// pcieb::parse_unsigned (common/parse.hpp), the one integer reader behind
// fault plans, recovery policies and the pciebench command line: base 0
// like strtoull, but the whole string must be the number and the value
// must fit `max` — nothing is wrapped, saturated or ignored.
#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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

}  // namespace
}  // namespace pcieb
