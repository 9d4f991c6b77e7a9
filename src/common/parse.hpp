// Strict unsigned integer parsing, shared by every grammar that reads one:
// fault plans, recovery policies and the pciebench command line.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

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

}  // namespace pcieb
