// Mergeable log-bucketed latency digests (HDR-histogram style).
//
// A Digest buckets unsigned picosecond values into log2 octaves subdivided
// into 2^kSubBits sub-buckets, bounding relative quantile error at
// 2^-kSubBits (~3% for kSubBits = 5). Counts live in one flat array over
// the occupied index range (lowest to highest touched bucket): adding a
// sample is an index computation and an increment, and a digest stores
// 32 counts per octave its samples span, not all 1,920 buckets of the
// u64 range. Merging two digests is plain per-bucket count addition —
// commutative and associative — so percentiles computed from a merged
// digest are exactly the percentiles of the merged sample stream
// regardless of how the stream was sharded across exec workers, chaos
// trials, or threads.
//
// Serialization is canonical (sorted buckets, fixed field order, no
// whitespace), so equal digests always serialize to equal bytes; journal
// records and campaign summaries built from them stay byte-identical
// across serial / --threads=N / fork-isolated / --resume runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pcieb::obs {

class Digest {
 public:
  /// Sub-bucket resolution: 2^kSubBits buckets per octave. Part of the
  /// serialized format (`sub=`); changing it is a format break.
  static constexpr unsigned kSubBits = 5;
  /// Highest bucket index: the bucket of 2^64 - 1 (1,919 for kSubBits 5).
  /// deserialize() rejects anything above it.
  static constexpr std::uint64_t kMaxIndex =
      ((64 - kSubBits) << kSubBits) | ((1u << kSubBits) - 1);

  /// Record `count` occurrences of value `v` (picoseconds by convention).
  void add(std::uint64_t v, std::uint64_t count = 1);
  /// Record a nanosecond sample (rounded to integer picoseconds).
  void add_ns(double ns);

  /// Per-bucket count addition; `*this` becomes the digest of the
  /// concatenated sample streams.
  void merge(const Digest& other);

  std::uint64_t count() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Value at quantile q in [0, 1]: the representative (bucket midpoint)
  /// of the bucket holding the ceil(q * count)-th smallest sample.
  /// Returns 0 for an empty digest. Exact for values < 2^kSubBits.
  std::uint64_t quantile(double q) const;
  double quantile_ns(double q) const { return quantile(q) / 1000.0; }

  std::uint64_t min() const;  ///< representative of the lowest bucket
  std::uint64_t max() const;  ///< representative of the highest bucket
  double mean() const;        ///< mean of bucket representatives

  /// Canonical single-line form: "v=1;sub=5;n=<count>;b=<idx>:<cnt>,..."
  /// (buckets ascending by index; `b=` empty when the digest is empty).
  std::string serialize() const;
  /// Strict parse of serialize() output. Returns false (leaving *out
  /// unspecified) on malformed input, a sub= mismatch, a bucket index
  /// above kMaxIndex or counts whose sum overflows.
  static bool deserialize(const std::string& s, Digest* out);

  /// Equal per-bucket counts. The occupied range starts and ends at
  /// non-zero buckets, so equal digests have equal storage.
  bool operator==(const Digest& other) const {
    return total_ == other.total_ && lo_ == other.lo_ &&
           counts_ == other.counts_;
  }

  /// Bucket mapping, exposed for tests: values below 2^kSubBits map to
  /// themselves; above, index = ((msb-kSubBits+1) << kSubBits) | the
  /// kSubBits bits after the leading one.
  static std::uint64_t bucket_index(std::uint64_t v);
  /// Inclusive value range [lo, hi] covered by bucket `idx`.
  static std::uint64_t bucket_lo(std::uint64_t idx);
  static std::uint64_t bucket_hi(std::uint64_t idx);
  /// Midpoint of [lo, hi] — the value quantile() reports for the bucket.
  static std::uint64_t bucket_rep(std::uint64_t idx);

 private:
  /// Extend the occupied range to include bucket `idx`.
  void cover(std::uint32_t idx);

  /// counts_[i] is the count of bucket lo_ + i; empty when no sample
  /// was added, otherwise its first and last entries are non-zero.
  std::vector<std::uint64_t> counts_;
  std::uint32_t lo_ = 0;
  std::uint64_t total_ = 0;
};

/// Named digests (one per breakdown stage, DMA direction, ...). Names must
/// not contain ':', '|', or newline — serialize() throws if one does.
class DigestSet {
 public:
  /// Digest for `name`, created empty on first use.
  Digest& at(const std::string& name) { return entries_[name]; }
  const Digest* find(const std::string& name) const;

  void merge(const DigestSet& other);

  bool empty() const;
  std::uint64_t total_count() const;
  std::size_t size() const { return entries_.size(); }
  const std::map<std::string, Digest>& entries() const { return entries_; }

  /// "<name>:<digest>|<name>:<digest>|..." sorted by name; "" when empty.
  std::string serialize() const;
  static bool deserialize(const std::string& s, DigestSet* out);

  /// Aligned table: name, count, p50/p99/p999 (ns), max (ns).
  std::string to_table() const;

 private:
  std::map<std::string, Digest> entries_;
};

/// TraceSink listener that turns the per-DMA lifecycle events into
/// "dma_read" / "dma_write" latency digests. Pairs Submit with Done by DMA
/// op id, so overlapping operations — bandwidth workloads, chaos trials —
/// are attributed correctly where LatencyBreakdown (serial-only by design)
/// would skip them.
class DmaLatencyRecorder {
 public:
  /// Wire via TraceSink::set_listener, or call from a composite listener.
  void on_event(const TraceEvent& e);

  const DigestSet& digests() const { return digests_; }
  DigestSet& digests() { return digests_; }

 private:
  std::map<std::uint32_t, Picos> open_reads_;
  std::map<std::uint32_t, Picos> open_writes_;
  DigestSet digests_;
};

}  // namespace pcieb::obs
