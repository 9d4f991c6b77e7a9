#include "obs/digest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace pcieb::obs {
namespace {

constexpr std::uint64_t kSubMask = (1ull << Digest::kSubBits) - 1;

/// Parses a decimal u64 from s[pos..), advancing pos. False if no digits.
bool parse_u64_at(const std::string& s, std::size_t& pos, std::uint64_t* out) {
  std::size_t start = pos;
  std::uint64_t v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(s[pos] - '0');
    ++pos;
  }
  if (pos == start) return false;
  *out = v;
  return true;
}

bool expect(const std::string& s, std::size_t& pos, const char* lit) {
  std::size_t n = std::char_traits<char>::length(lit);
  if (s.compare(pos, n, lit) != 0) return false;
  pos += n;
  return true;
}

}  // namespace

std::uint64_t Digest::bucket_index(std::uint64_t v) {
  if (v < (1ull << kSubBits)) return v;
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - static_cast<int>(kSubBits);
  return (static_cast<std::uint64_t>(msb - kSubBits + 1) << kSubBits) |
         ((v >> shift) & kSubMask);
}

std::uint64_t Digest::bucket_lo(std::uint64_t idx) {
  if (idx < (1ull << kSubBits)) return idx;
  const std::uint64_t octave = idx >> kSubBits;  // msb - kSubBits + 1
  const std::uint64_t sub = idx & kSubMask;
  const int msb = static_cast<int>(octave) + static_cast<int>(kSubBits) - 1;
  return (1ull << msb) | (sub << (msb - static_cast<int>(kSubBits)));
}

std::uint64_t Digest::bucket_hi(std::uint64_t idx) {
  if (idx < (1ull << kSubBits)) return idx;
  const std::uint64_t octave = idx >> kSubBits;
  const int msb = static_cast<int>(octave) + static_cast<int>(kSubBits) - 1;
  const std::uint64_t width = 1ull << (msb - static_cast<int>(kSubBits));
  return bucket_lo(idx) + width - 1;
}

std::uint64_t Digest::bucket_rep(std::uint64_t idx) {
  const std::uint64_t lo = bucket_lo(idx);
  return lo + (bucket_hi(idx) - lo) / 2;
}

void Digest::cover(std::uint32_t idx) {
  if (counts_.empty()) {
    lo_ = idx;
    counts_.assign(1, 0);
  } else if (idx < lo_) {
    counts_.insert(counts_.begin(), lo_ - idx, 0);
    lo_ = idx;
  } else if (idx - lo_ >= counts_.size()) {
    counts_.resize(idx - lo_ + 1, 0);
  }
}

void Digest::add(std::uint64_t v, std::uint64_t count) {
  if (count == 0) return;
  const auto idx = static_cast<std::uint32_t>(bucket_index(v));
  // One unsigned compare catches both idx < lo_ and idx past the end.
  if (idx - lo_ >= counts_.size()) cover(idx);
  counts_[idx - lo_] += count;
  total_ += count;
}

void Digest::add_ns(double ns) {
  if (!(ns > 0)) {  // negatives and NaN clamp to the zero bucket
    add(0);
    return;
  }
  add(static_cast<std::uint64_t>(std::llround(ns * 1000.0)));
}

void Digest::merge(const Digest& other) {
  if (!other.counts_.empty()) {
    const std::size_t n = other.counts_.size();
    cover(other.lo_);
    cover(other.lo_ + static_cast<std::uint32_t>(n - 1));
    const std::size_t offset = other.lo_ - lo_;
    for (std::size_t i = 0; i < n; ++i) {
      counts_[offset + i] += other.counts_[i];
    }
  }
  total_ += other.total_;
}

std::uint64_t Digest::quantile(double q) const {
  if (total_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  if (rank > total_) rank = total_;
  // Empty buckets leave `seen` unchanged, so the first bucket to reach
  // the rank is always an occupied one.
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return bucket_rep(lo_ + i);
  }
  return max();
}

std::uint64_t Digest::min() const {
  return counts_.empty() ? 0 : bucket_rep(lo_);
}

std::uint64_t Digest::max() const {
  return counts_.empty() ? 0 : bucket_rep(lo_ + counts_.size() - 1);
}

double Digest::mean() const {
  if (total_ == 0) return 0;
  double sum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    sum += static_cast<double>(bucket_rep(lo_ + i)) *
           static_cast<double>(counts_[i]);
  }
  return sum / static_cast<double>(total_);
}

std::string Digest::serialize() const {
  std::string out = "v=1;sub=" + std::to_string(kSubBits) +
                    ";n=" + std::to_string(total_) + ";b=";
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += std::to_string(lo_ + i);
    out += ':';
    out += std::to_string(counts_[i]);
  }
  return out;
}

bool Digest::deserialize(const std::string& s, Digest* out) {
  std::size_t pos = 0;
  std::uint64_t sub = 0, n = 0;
  if (!expect(s, pos, "v=1;sub=")) return false;
  if (!parse_u64_at(s, pos, &sub) || sub != kSubBits) return false;
  if (!expect(s, pos, ";n=")) return false;
  if (!parse_u64_at(s, pos, &n)) return false;
  if (!expect(s, pos, ";b=")) return false;
  Digest d;
  std::uint64_t seen = 0;
  std::uint64_t prev_idx = 0;
  bool first = true;
  while (pos < s.size()) {
    std::uint64_t idx = 0, cnt = 0;
    if (!parse_u64_at(s, pos, &idx)) return false;
    if (!expect(s, pos, ":")) return false;
    if (!parse_u64_at(s, pos, &cnt)) return false;
    if (cnt == 0) return false;
    if (idx > kMaxIndex) return false;  // checked before cover() allocates
    if (!first && idx <= prev_idx) return false;  // must be sorted, unique
    if (cnt > std::numeric_limits<std::uint64_t>::max() - seen) return false;
    first = false;
    prev_idx = idx;
    d.cover(static_cast<std::uint32_t>(idx));
    d.counts_[idx - d.lo_] = cnt;
    seen += cnt;
    if (pos < s.size()) {
      if (!expect(s, pos, ",")) return false;
      if (pos == s.size()) return false;  // trailing comma
    }
  }
  if (seen != n) return false;
  d.total_ = n;
  *out = std::move(d);
  return true;
}

const Digest* DigestSet::find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

void DigestSet::merge(const DigestSet& other) {
  for (const auto& [name, d] : other.entries_) entries_[name].merge(d);
}

bool DigestSet::empty() const {
  for (const auto& [name, d] : entries_) {
    (void)name;
    if (!d.empty()) return false;
  }
  return true;
}

std::uint64_t DigestSet::total_count() const {
  std::uint64_t n = 0;
  for (const auto& [name, d] : entries_) {
    (void)name;
    n += d.count();
  }
  return n;
}

std::string DigestSet::serialize() const {
  std::string out;
  for (const auto& [name, d] : entries_) {
    if (name.find_first_of(":|\n") != std::string::npos) {
      throw std::invalid_argument("DigestSet: name contains ':', '|' or NL: " +
                                  name);
    }
    if (!out.empty()) out += '|';
    out += name;
    out += ':';
    out += d.serialize();
  }
  return out;
}

bool DigestSet::deserialize(const std::string& s, DigestSet* out) {
  DigestSet set;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t bar = s.find('|', pos);
    if (bar == std::string::npos) bar = s.size();
    const std::string entry = s.substr(pos, bar - pos);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    const std::string name = entry.substr(0, colon);
    if (set.entries_.count(name) != 0) return false;
    Digest d;
    if (!Digest::deserialize(entry.substr(colon + 1), &d)) return false;
    set.entries_.emplace(name, std::move(d));
    pos = bar + 1;
    if (pos == s.size() && bar != s.size()) return false;  // trailing '|'
  }
  *out = std::move(set);
  return true;
}

std::string DigestSet::to_table() const {
  std::string out =
      "stage                    count       p50_ns       p99_ns      p999_ns"
      "       max_ns\n";
  char line[160];
  for (const auto& [name, d] : entries_) {
    std::snprintf(line, sizeof(line),
                  "%-20s %10llu %12.3f %12.3f %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(d.count()),
                  d.quantile_ns(0.50), d.quantile_ns(0.99),
                  d.quantile_ns(0.999), d.max() / 1000.0);
    out += line;
  }
  return out;
}

void DmaLatencyRecorder::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::DmaReadSubmit:
      open_reads_[e.id] = e.ts;
      break;
    case EventKind::DmaWriteSubmit:
      open_writes_[e.id] = e.ts;
      break;
    case EventKind::DmaReadDone: {
      const auto it = open_reads_.find(e.id);
      if (it == open_reads_.end()) break;
      digests_.at("dma_read").add(static_cast<std::uint64_t>(e.ts - it->second));
      open_reads_.erase(it);
      break;
    }
    case EventKind::DmaWriteDone: {
      const auto it = open_writes_.find(e.id);
      if (it == open_writes_.end()) break;
      digests_.at("dma_write")
          .add(static_cast<std::uint64_t>(e.ts - it->second));
      open_writes_.erase(it);
      break;
    }
    default:
      break;
  }
}

}  // namespace pcieb::obs
