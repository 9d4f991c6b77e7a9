// obs::Digest / obs::DigestSet: the bucket mapping's error bound, the
// merge algebra (commutative, associative, equal to digesting the
// concatenated stream) and the canonical serialization that the journal
// byte-identity contract rides on (docs/OBSERVABILITY.md).
#include "obs/digest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace pcieb::obs {
namespace {

TEST(DigestBucketsTest, SmallValuesMapToThemselves) {
  for (std::uint64_t v = 0; v < (1u << Digest::kSubBits); ++v) {
    const std::uint64_t idx = Digest::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(Digest::bucket_lo(idx), v);
    EXPECT_EQ(Digest::bucket_hi(idx), v);
    EXPECT_EQ(Digest::bucket_rep(idx), v);
  }
}

TEST(DigestBucketsTest, BucketsPartitionTheValueRange) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 10000; ++i) {
    // Bias toward small exponents but cover the full 64-bit range.
    const unsigned shift = static_cast<unsigned>(rng() % 64);
    const std::uint64_t v = rng() >> shift;
    const std::uint64_t idx = Digest::bucket_index(v);
    EXPECT_LE(Digest::bucket_lo(idx), v);
    EXPECT_GE(Digest::bucket_hi(idx), v);
    EXPECT_EQ(Digest::bucket_index(Digest::bucket_lo(idx)), idx);
    EXPECT_EQ(Digest::bucket_index(Digest::bucket_hi(idx)), idx);
    if (Digest::bucket_hi(idx) < std::numeric_limits<std::uint64_t>::max()) {
      EXPECT_EQ(Digest::bucket_index(Digest::bucket_hi(idx) + 1), idx + 1);
    }
  }
}

TEST(DigestBucketsTest, RepresentativeWithinRelativeErrorBound) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 40);
    if (v == 0) continue;
    const std::uint64_t rep = Digest::bucket_rep(Digest::bucket_index(v));
    const double err = std::abs(static_cast<double>(rep) -
                                static_cast<double>(v));
    // Half a sub-bucket: 2^-(kSubBits+1) of the octave base.
    EXPECT_LE(err, static_cast<double>(v) / (1 << Digest::kSubBits))
        << "v=" << v << " rep=" << rep;
  }
}

TEST(DigestTest, QuantilesOfKnownSmallPopulation) {
  Digest d;
  for (std::uint64_t v = 0; v < 32; ++v) d.add(v);
  EXPECT_EQ(d.count(), 32u);
  EXPECT_EQ(d.min(), 0u);
  EXPECT_EQ(d.max(), 31u);
  EXPECT_EQ(d.quantile(0.0), 0u);    // rank clamps to 1
  EXPECT_EQ(d.quantile(0.5), 15u);   // ceil(0.5*32) = 16th smallest = 15
  EXPECT_EQ(d.quantile(1.0), 31u);
  EXPECT_DOUBLE_EQ(d.mean(), 15.5);
}

TEST(DigestTest, AddNsRoundsToPicosAndFloorsNonPositive) {
  Digest d;
  d.add_ns(1.0);     // 1000 ps
  d.add_ns(0.0004);  // rounds to 0 ps
  d.add_ns(-5.0);    // clamps to bucket 0
  d.add_ns(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(d.count(), 4u);
  EXPECT_EQ(d.quantile(1.0), Digest::bucket_rep(Digest::bucket_index(1000)));
  EXPECT_EQ(d.min(), 0u);
}

Digest random_digest(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  Digest d;
  for (int i = 0; i < n; ++i) d.add(rng() >> (rng() % 48));
  return d;
}

TEST(DigestTest, MergeIsCommutativeAndAssociative) {
  const Digest a = random_digest(1, 500);
  const Digest b = random_digest(2, 300);
  const Digest c = random_digest(3, 700);

  Digest ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.serialize(), ba.serialize());

  Digest ab_c = ab;
  ab_c.merge(c);
  Digest bc = b, a_bc = a;
  bc.merge(c);
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c.serialize(), a_bc.serialize());
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
}

TEST(DigestTest, MergeEqualsDigestOfConcatenatedStream) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> all;
  Digest merged;
  for (int shard = 0; shard < 4; ++shard) {
    Digest part;
    for (int i = 0; i < 250; ++i) {
      const std::uint64_t v = rng() >> (rng() % 32);
      all.push_back(v);
      part.add(v);
    }
    merged.merge(part);
  }
  Digest whole;
  for (const std::uint64_t v : all) whole.add(v);
  EXPECT_EQ(merged, whole);
  EXPECT_EQ(merged.serialize(), whole.serialize());
}

TEST(DigestTest, SerializeRoundTripsExactly) {
  const Digest d = random_digest(99, 1000);
  Digest back;
  ASSERT_TRUE(Digest::deserialize(d.serialize(), &back));
  EXPECT_EQ(d, back);
  EXPECT_EQ(d.serialize(), back.serialize());

  Digest empty, empty_back;
  ASSERT_TRUE(Digest::deserialize(empty.serialize(), &empty_back));
  EXPECT_TRUE(empty_back.empty());
}

TEST(DigestTest, DeserializeRejectsMalformedInput) {
  Digest out;
  const char* bad[] = {
      "",
      "v=2;sub=5;n=0;b=",            // unknown version
      "v=1;sub=4;n=0;b=",            // sub-bit mismatch
      "v=1;sub=5;n=1;b=",            // count without buckets
      "v=1;sub=5;n=2;b=3:1",         // sum != n
      "v=1;sub=5;n=2;b=5:1,3:1",     // unsorted
      "v=1;sub=5;n=2;b=3:1,3:1",     // duplicate index
      "v=1;sub=5;n=1;b=3:0",         // zero count
      "v=1;sub=5;n=1;b=3:1,",        // trailing separator
      "v=1;sub=5;n=1;b=3:1;x=1",     // trailing field
      "v=1;sub=5;n=x;b=",            // non-numeric
  };
  for (const char* s : bad) {
    EXPECT_FALSE(Digest::deserialize(s, &out)) << "accepted: " << s;
  }
}

TEST(DigestTest, DeserializeBoundsTheBucketIndex) {
  // 1919 is the bucket of 2^64 - 1: the last index a sample can reach.
  EXPECT_EQ(Digest::kMaxIndex, 1919u);
  EXPECT_EQ(Digest::bucket_index(std::numeric_limits<std::uint64_t>::max()),
            Digest::kMaxIndex);
  Digest out;
  EXPECT_FALSE(Digest::deserialize("v=1;sub=5;n=1;b=1920:1", &out));
  EXPECT_FALSE(
      Digest::deserialize("v=1;sub=5;n=1;b=18446744073709551615:1", &out));
  EXPECT_FALSE(Digest::deserialize("v=1;sub=5;n=2;b=3:1,1920:1", &out));
  // Counts whose sum wraps to n are not a digest of n samples.
  EXPECT_FALSE(Digest::deserialize(
      "v=1;sub=5;n=0;b=3:18446744073709551615,4:1", &out));

  const std::string top = "v=1;sub=5;n=1;b=1919:1";
  ASSERT_TRUE(Digest::deserialize(top, &out));
  EXPECT_EQ(out.serialize(), top);
  Digest expect;
  expect.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, expect);
}

/// A fixed stream: every small value class, one sample in the top bucket
/// and 1,000 latency-shaped values between 150 ns and 1.05 us (in ps).
Digest pinned_stream() {
  Digest d;
  const std::uint64_t fixed[] = {0,      1,      31,      32,       33,
                                 63,     64,     65,      1000,     1023,
                                 1024,   123456, 999999,  1ull << 40,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : fixed) d.add(v);
  d.add(250000, 3);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    d.add(150000 + (i * i * 37) % 900000);
  }
  return d;
}

TEST(DigestTest, PinnedStreamSerializesAsBefore) {
  // Literal and statistics as the std::map-backed Digest produced them;
  // any storage must reproduce them byte for byte.
  const std::string expected =
      "v=1;sub=5;n=1018;b=0:1,1:1,31:1,32:1,33:1,63:1,64:2,190:1,191:1,"
      "192:1,412:1,420:9,421:10,422:9,423:6,424:7,425:4,426:8,427:9,428:3,"
      "429:5,430:7,431:7,432:6,433:3,434:6,435:6,436:4,437:8,438:7,439:3,"
      "440:3,441:4,442:4,443:7,444:3,445:8,446:8,447:8,448:11,449:5,450:9,"
      "451:12,452:6,453:11,454:11,455:10,456:9,457:13,458:6,459:5,460:9,"
      "461:14,462:9,463:13,464:6,465:8,466:9,467:5,468:11,469:11,470:12,"
      "471:5,472:10,473:8,474:9,475:12,476:5,477:8,478:13,479:6,480:18,"
      "481:19,482:14,483:20,484:18,485:16,486:13,487:20,488:23,489:14,"
      "490:14,491:20,492:20,493:12,494:15,495:18,496:20,497:14,498:20,"
      "499:13,500:17,501:19,502:12,503:22,504:16,505:14,506:17,507:18,"
      "508:12,509:19,510:18,511:15,512:1,1152:1,1919:1";
  const Digest d = pinned_stream();
  EXPECT_EQ(d.serialize(), expected);
  EXPECT_EQ(d.count(), 1018u);
  EXPECT_EQ(d.quantile(0.50), 548863u);
  EXPECT_EQ(d.quantile(0.99), 1040383u);
  EXPECT_EQ(d.min(), 0u);
  EXPECT_EQ(d.max(), 18302628885633695743u);
  EXPECT_DOUBLE_EQ(d.mean(), 17979007861392640.0);
  Digest back;
  ASSERT_TRUE(Digest::deserialize(expected, &back));
  EXPECT_EQ(back, d);
}

TEST(DigestTest, DisjointRangesMergeAndCompareByContent) {
  // Low spans buckets 0-113, high 400-430: the ranges do not overlap.
  Digest low, high;
  for (std::uint64_t v = 0; v < 200; v += 7) low.add(v);
  for (std::uint64_t v = 100000; v < 200000; v += 9000) high.add(v, 2);

  Digest low_high = low, high_low = high;
  low_high.merge(high);
  high_low.merge(low);
  EXPECT_EQ(low_high, high_low);
  EXPECT_EQ(low_high.serialize(), high_low.serialize());
  EXPECT_EQ(low_high.count(), low.count() + high.count());
  EXPECT_EQ(low_high.min(), low.min());
  EXPECT_EQ(low_high.max(), high.max());
  EXPECT_NE(low_high, low);
  EXPECT_NE(low, high);

  // The same samples added one by one, high range first.
  Digest direct;
  for (std::uint64_t v = 100000; v < 200000; v += 9000) direct.add(v, 2);
  for (std::uint64_t v = 0; v < 200; v += 7) direct.add(v);
  EXPECT_EQ(direct, low_high);

  // Merging an empty digest either way changes nothing.
  Digest empty, merged = low_high;
  merged.merge(empty);
  EXPECT_EQ(merged, low_high);
  empty.merge(low_high);
  EXPECT_EQ(empty, low_high);

  // Equal counts over different buckets are not equal digests.
  Digest a, b;
  a.add(5);
  b.add(6);
  EXPECT_NE(a, b);
}

TEST(DigestSetTest, MergeAndSerializeAreOrderIndependent) {
  DigestSet x, y;
  x.at("alpha").add(100);
  x.at("beta").add(200);
  y.at("beta").add(300);
  y.at("gamma").add(400);

  DigestSet xy = x, yx = y;
  xy.merge(y);
  yx.merge(x);
  EXPECT_EQ(xy.serialize(), yx.serialize());
  EXPECT_EQ(xy.total_count(), 4u);
  EXPECT_EQ(xy.size(), 3u);

  DigestSet back;
  ASSERT_TRUE(DigestSet::deserialize(xy.serialize(), &back));
  EXPECT_EQ(back.serialize(), xy.serialize());
}

TEST(DigestSetTest, EmptyMeansNoSamplesAnywhere) {
  DigestSet s;
  EXPECT_TRUE(s.empty());
  s.at("untouched");  // a named but sample-free digest is still empty
  EXPECT_TRUE(s.empty());
  s.at("hot").add(1);
  EXPECT_FALSE(s.empty());
}

TEST(DigestSetTest, SerializeRejectsReservedCharactersInNames) {
  DigestSet s;
  s.at("a:b").add(1);
  EXPECT_THROW(s.serialize(), std::invalid_argument);
  DigestSet t;
  t.at("a|b").add(1);
  EXPECT_THROW(t.serialize(), std::invalid_argument);
}

TEST(DigestSetTest, TableListsEntriesSortedByName) {
  DigestSet s;
  s.at("zeta").add(1000);
  s.at("alpha").add(2000);
  const std::string table = s.to_table();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("zeta"), std::string::npos);
  EXPECT_LT(table.find("alpha"), table.find("zeta"));
}

}  // namespace
}  // namespace pcieb::obs
