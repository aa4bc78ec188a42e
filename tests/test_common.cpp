// Unit tests for src/common: clocks, RNG, serialization, stats, hashing,
// Result/Status, and the logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"

namespace ew {
namespace {

// --- Clock -----------------------------------------------------------------

TEST(VirtualClock, StartsAtGivenTime) {
  VirtualClock c(123);
  EXPECT_EQ(c.now(), 123);
}

TEST(VirtualClock, AdvanceMovesForward) {
  VirtualClock c;
  c.advance(5 * kSecond);
  EXPECT_EQ(c.now(), 5 * kSecond);
  c.advance(0);
  EXPECT_EQ(c.now(), 5 * kSecond);
}

TEST(VirtualClock, RejectsNegativeAdvance) {
  VirtualClock c;
  EXPECT_THROW(c.advance(-1), std::invalid_argument);
}

TEST(VirtualClock, RejectsBackwardSet) {
  VirtualClock c(100);
  EXPECT_THROW(c.set(99), std::invalid_argument);
  c.set(100);  // same time is fine
  EXPECT_EQ(c.now(), 100);
}

TEST(RealClock, MonotonicNonNegative) {
  RealClock c;
  const TimePoint a = c.now();
  EXPECT_GE(a, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(c.now(), a);
}

TEST(ClockConversions, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(2.5), 2'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(0.125)), 0.125);
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng r(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(bound), bound);
  }
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng r(13);
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == child.next_u64();
  EXPECT_LT(same, 3);
}

// --- Hash --------------------------------------------------------------------

TEST(Hash, Fnv1aKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, RendezvousIsDeterministicAndSpreads) {
  EXPECT_EQ(rendezvous_weight("owner1", "item"),
            rendezvous_weight("owner1", "item"));
  EXPECT_NE(rendezvous_weight("owner1", "item"),
            rendezvous_weight("owner2", "item"));
}

// --- Serialize -----------------------------------------------------------------

TEST(Serialize, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1'000'000'000'000LL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.str("hello EveryWare");
  w.blob(Bytes{1, 2, 3});

  Reader r(w.bytes());
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 0xBEEF);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.i32(), -42);
  EXPECT_EQ(*r.i64(), -1'000'000'000'000LL);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.14159);
  EXPECT_TRUE(*r.boolean());
  EXPECT_FALSE(*r.boolean());
  EXPECT_EQ(*r.str(), "hello EveryWare");
  EXPECT_EQ(*r.blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, EmptyStringAndBlob) {
  Writer w;
  w.str("");
  w.blob({});
  Reader r(w.bytes());
  EXPECT_EQ(*r.str(), "");
  EXPECT_TRUE(r.blob()->empty());
}

TEST(Serialize, TruncatedReadsFail) {
  Writer w;
  w.u32(7);
  Reader r(w.bytes());
  EXPECT_TRUE(r.u32().ok());
  EXPECT_EQ(r.u32().code(), Err::kProtocol);
  EXPECT_EQ(r.u64().code(), Err::kProtocol);
}

// Each fixed-width read, one byte short: it fails with the same message and
// leaves the reader where it was.
template <class Read>
void expect_short_read(std::size_t have, Read read, const std::string& message) {
  const Bytes b(have, 0xAB);
  Reader r(b);
  const auto out = read(r);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, Err::kProtocol);
  EXPECT_EQ(out.error().message, message);
  EXPECT_EQ(r.remaining(), have);
}

TEST(Serialize, ShortFixedWidthReadsFailAndConsumeNothing) {
  expect_short_read(0, [](Reader& r) { return r.u8(); }, "truncated: need 1 bytes, have 0");
  expect_short_read(1, [](Reader& r) { return r.u16(); }, "truncated: need 2 bytes, have 1");
  expect_short_read(3, [](Reader& r) { return r.u32(); }, "truncated: need 4 bytes, have 3");
  expect_short_read(7, [](Reader& r) { return r.u64(); }, "truncated: need 8 bytes, have 7");
  expect_short_read(3, [](Reader& r) { return r.i32(); }, "truncated: need 4 bytes, have 3");
  expect_short_read(7, [](Reader& r) { return r.i64(); }, "truncated: need 8 bytes, have 7");
  expect_short_read(7, [](Reader& r) { return r.f64(); }, "truncated: need 8 bytes, have 7");
  expect_short_read(0, [](Reader& r) { return r.boolean(); },
                    "truncated: need 1 bytes, have 0");
  expect_short_read(3, [](Reader& r) { return r.raw(4); }, "blob length 4 exceeds remaining 3");
}

TEST(Serialize, ShortLengthPrefixFailsAndConsumesNothing) {
  expect_short_read(2, [](Reader& r) { return r.str(); }, "truncated: need 4 bytes, have 2");
  expect_short_read(3, [](Reader& r) { return r.blob(); }, "truncated: need 4 bytes, have 3");
}

TEST(Serialize, ShortBodyFailsAfterItsLengthPrefix) {
  Writer w;
  w.u32(5);
  w.raw(Bytes{1, 2, 3});
  {
    Reader r(w.bytes());
    const auto s = r.str();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Err::kProtocol);
    EXPECT_EQ(s.error().message, "string length 5 exceeds remaining 3");
    EXPECT_EQ(r.remaining(), 3u);  // the prefix was read, the body was not
  }
  {
    Reader r(w.bytes());
    const auto b = r.blob();
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(b.error().code, Err::kProtocol);
    EXPECT_EQ(b.error().message, "blob length 5 exceeds remaining 3");
    EXPECT_EQ(r.remaining(), 3u);
  }
}

TEST(Serialize, StringLengthBeyondBufferFails) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  Reader r(w.bytes());
  EXPECT_EQ(r.str().code(), Err::kProtocol);
}

TEST(Serialize, BadBooleanEncodingFails) {
  Bytes b{2};
  Reader r(b);
  const auto v = r.boolean();
  EXPECT_EQ(v.code(), Err::kProtocol);
  EXPECT_EQ(v.error().message, "bad boolean encoding");
}

TEST(Serialize, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(Serialize, F64SpecialValues) {
  Writer w;
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  Reader r(w.bytes());
  EXPECT_EQ(std::signbit(*r.f64()), true);
  EXPECT_TRUE(std::isinf(*r.f64()));
}

// --- Result / Status ------------------------------------------------------------

TEST(Result, ValueAccess) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value_or(9), 5);
  EXPECT_EQ(r.code(), Err::kOk);
}

TEST(Result, ErrorAccess) {
  Result<int> r(Err::kTimeout, "too slow");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Err::kTimeout);
  EXPECT_EQ(r.error().message, "too slow");
  EXPECT_EQ(r.value_or(9), 9);
  EXPECT_THROW(r.value(), std::logic_error);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status s(Err::kRefused, "nope");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("refused"), std::string::npos);
}

TEST(ErrName, AllCodesNamed) {
  for (int i = 0; i <= static_cast<int>(Err::kInternal); ++i) {
    EXPECT_STRNE(err_name(static_cast<Err>(i)), "unknown");
  }
}

// --- Stats ------------------------------------------------------------------

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(OrderedWindow, KeepsRankOrderWhileSliding) {
  OrderedWindow w(3);
  for (double v : {5.0, 1.0, 3.0}) w.add(v);
  EXPECT_DOUBLE_EQ(w.at_rank(0), 1.0);
  EXPECT_DOUBLE_EQ(w.at_rank(2), 5.0);
  w.add(2.0);  // evicts 5 -> {1,3,2}
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.at_rank(0), 1.0);
  EXPECT_DOUBLE_EQ(w.at_rank(1), 2.0);
  EXPECT_DOUBLE_EQ(w.at_rank(2), 3.0);
  EXPECT_DOUBLE_EQ(w.back(), 2.0);
}

TEST(OrderedWindow, MedianIsNearestRank) {
  // Nearest-rank, the same rule as quantile(0.5): the lower middle element
  // for even sizes.
  OrderedWindow w(4);
  w.add(1);
  w.add(9);
  EXPECT_DOUBLE_EQ(w.median(), 1.0);
  w.add(3);
  EXPECT_DOUBLE_EQ(w.median(), 3.0);
  w.add(5);
  EXPECT_DOUBLE_EQ(w.median(), 3.0);  // {1,3,5,9}
}

TEST(OrderedWindow, QuantileMatchesSlidingWindow) {
  // The nearest-rank quantile of a sorted copy of the trailing window (what
  // the copy-and-sort SlidingWindow answered), just O(1).
  OrderedWindow ow(10);
  std::deque<double> fifo;
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0, 1000);
    ow.add(v);
    fifo.push_back(v);
    if (fifo.size() > 10) fifo.pop_front();
    std::vector<double> sorted(fifo.begin(), fifo.end());
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.98, 1.0}) {
      const auto rank = static_cast<std::size_t>(std::min(std::ceil(q * n), n));
      EXPECT_EQ(ow.quantile(q), sorted[rank == 0 ? 0 : rank - 1]) << "q=" << q;
    }
  }
  OrderedWindow w(10);
  for (int i = 1; i <= 10; ++i) w.add(i);
  EXPECT_DOUBLE_EQ(w.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(w.quantile(0.9), 9.0);
}

TEST(OrderedWindow, RangeSumAndClear) {
  OrderedWindow w(5);
  for (double v : {4.0, 1.0, 2.0, 8.0, 16.0}) w.add(v);
  EXPECT_DOUBLE_EQ(w.range_sum(0, 5), 31.0);
  EXPECT_DOUBLE_EQ(w.range_sum(1, 4), 2.0 + 4.0 + 8.0);
  EXPECT_DOUBLE_EQ(w.range_sum(3, 99), 8.0 + 16.0);  // hi clamped to size
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_THROW((void)w.median(), std::logic_error);
  EXPECT_THROW((void)w.quantile(0.5), std::logic_error);
}

TEST(OrderedWindow, ZeroCapacityThrows) {
  EXPECT_THROW(OrderedWindow(0), std::invalid_argument);
}

TEST(OrderedWindow, MatchesMultisetReferenceUnderChurn) {
  // Rank-by-rank agreement with a std::multiset reference across thousands
  // of insert+evict cycles, including duplicates.
  OrderedWindow w(16);
  std::multiset<double> ref;
  std::deque<double> fifo;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::floor(rng.uniform(0, 40));  // forces duplicates
    w.add(v);
    fifo.push_back(v);
    ref.insert(v);
    if (fifo.size() > 16) {
      ref.erase(ref.find(fifo.front()));
      fifo.pop_front();
    }
    std::size_t r = 0;
    for (double x : ref) {
      ASSERT_DOUBLE_EQ(w.at_rank(r), x) << "rank " << r << " at step " << i;
      ++r;
    }
  }
}

TEST(BinnedSeries, DepositsAndRates) {
  BinnedSeries s(0, kMinute, 3);
  s.add(10 * kSecond, 600.0);
  s.add(30 * kSecond, 600.0);
  s.add(90 * kSecond, 1200.0);
  s.add(-5, 1.0);               // before window: ignored
  s.add(10 * kMinute, 1.0);     // after window: ignored
  EXPECT_DOUBLE_EQ(s.rate(0), 20.0);  // 1200 units / 60 s
  EXPECT_DOUBLE_EQ(s.rate(1), 20.0);
  EXPECT_DOUBLE_EQ(s.rate(2), 0.0);
  EXPECT_EQ(s.bin_start(2), 2 * kMinute);
}

TEST(BinnedSeries, GaugeAverages) {
  BinnedSeries s(0, kMinute, 2);
  s.sample(1 * kSecond, 10);
  s.sample(2 * kSecond, 20);
  s.sample(61 * kSecond, 7);
  EXPECT_DOUBLE_EQ(s.average(0), 15.0);
  EXPECT_DOUBLE_EQ(s.average(1), 7.0);
  EXPECT_EQ(s.average_series().size(), 2u);
}

TEST(BinnedSeries, InvalidConstruction) {
  EXPECT_THROW(BinnedSeries(0, 0, 3), std::invalid_argument);
  EXPECT_THROW(BinnedSeries(0, kSecond, 0), std::invalid_argument);
}

TEST(ErrorTracker, MaeMse) {
  ErrorTracker t;
  t.add(10, 12);
  t.add(10, 8);
  EXPECT_DOUBLE_EQ(t.mae(), 2.0);
  EXPECT_DOUBLE_EQ(t.mse(), 4.0);
  EXPECT_EQ(t.count(), 2u);
}

// --- Log ----------------------------------------------------------------------

TEST(Log, SinkReceivesAtOrAboveLevel) {
  std::vector<std::string> lines;
  Log::set_sink([&](const Log::Record& rec) { lines.push_back(rec.message); });
  Log::set_level(LogLevel::kWarn);
  EW_DEBUG << "hidden";
  EW_WARN << "shown " << 42;
  EW_ERROR << "also shown";
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "shown 42");
}

TEST(Log, StructuredRecordCarriesComponentAndTag) {
  std::vector<Log::Record> records;
  Log::set_sink([&](const Log::Record& rec) { records.push_back(rec); });
  Log::set_level(LogLevel::kInfo);
  EW_LOG_C(LogLevel::kWarn, "gossip") << "poll " << 3 << " failed";
  Log::write(Log::Record{LogLevel::kInfo, "sched", "dispatch", "ep/0x0201"});
  Log::write(LogLevel::kInfo, "untagged");
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].component, "gossip");
  EXPECT_EQ(records[0].message, "poll 3 failed");
  EXPECT_EQ(records[0].level, LogLevel::kWarn);
  EXPECT_EQ(records[1].event_tag, "ep/0x0201");
  EXPECT_EQ(records[2].component, "");
  EXPECT_EQ(records[2].message, "untagged");
}

}  // namespace
}  // namespace ew
