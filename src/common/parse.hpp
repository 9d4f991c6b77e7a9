// Strict number parsing, shared by every grammar that reads one: fault
// plans, recovery policies and the pciebench command line.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/units.hpp"

namespace pcieb {

/// `s` as an unsigned integer in [0, max], or nullopt. The base follows
/// strtoull's base 0 (decimal, 0x hex, leading-0 octal), but the whole
/// string must be the number: a sign, leading space, trailing text or a
/// value past `max` is rejected instead of being wrapped, saturated or
/// ignored.
inline std::optional<std::uint64_t> parse_unsigned(
    const std::string& s,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno != 0 || end != s.c_str() + s.size() || v > max) {
    return std::nullopt;
  }
  return v;
}

/// `s` as a time in picoseconds, or nullopt: decimal digits with an
/// optional fraction ("12", "3.5"), then an optional unit ps, ns, us, ms
/// or s; bare = ns. Like parse_unsigned it rejects a sign, leading space,
/// an exponent, hex, "inf" and "nan". A value past the Picos range clamps
/// to its maximum, the unbounded-window sentinel that FaultRule::describe()
/// writes, so that output parses back exactly. On failure `why`, when
/// given, reads "negative time", "bad time unit 'X'" or "bad time".
inline std::optional<Picos> parse_time(const std::string& s,
                                       std::string* why = nullptr) {
  const auto fail = [why](std::string what) -> std::optional<Picos> {
    if (why) *why = std::move(what);
    return std::nullopt;
  };
  const auto digits_end = [&s](std::size_t i) {
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i;
  };
  std::size_t end = digits_end(0);
  if (end == 0) return fail(s.starts_with('-') ? "negative time" : "bad time");
  if (end < s.size() && s[end] == '.') {
    const std::size_t frac = digits_end(end + 1);
    if (frac == end + 1) return fail("bad time");
    end = frac;
  }
  const std::string unit = s.substr(end);
  double scale = 0.0;
  if (unit.empty() || unit == "ns") scale = 1e3;
  else if (unit == "ps") scale = 1.0;
  else if (unit == "us") scale = 1e6;
  else if (unit == "ms") scale = 1e9;
  else if (unit == "s") scale = 1e12;
  else return fail("bad time unit '" + unit + "'");
  const double ps = std::strtod(s.substr(0, end).c_str(), nullptr) * scale;
  constexpr Picos kMax = std::numeric_limits<Picos>::max();
  if (ps >= static_cast<double>(kMax)) return kMax;
  return static_cast<Picos>(ps + 0.5);
}

}  // namespace pcieb
