// Tests of the benchmark harness itself: tail selection, the stage-ledger
// re-derivation, and a planted-corruption negative control for every
// output check (each must fail on its corruption and pass without it):
// fanin-read's arrival balance and the record and pattern checks on
// synthetic data, stream-rw and kv-update also on corruption planted in the
// store during a full round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.h"
#include "harness.h"

namespace perfbench {
namespace {

TEST(PickTail, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(PickTail(0).label, "");
  EXPECT_EQ(PickTail(19).label, "");
  EXPECT_EQ(PickTail(20).label, "p50");
  EXPECT_EQ(PickTail(99).label, "p50");
  EXPECT_EQ(PickTail(100).label, "p90");
  EXPECT_EQ(PickTail(999).label, "p90");
  EXPECT_EQ(PickTail(1000).label, "p99");
  EXPECT_EQ(PickTail(9999).label, "p99");
  EXPECT_EQ(PickTail(10000).label, "p999");
  EXPECT_EQ(PickTail(99999).label, "p999");
  EXPECT_EQ(PickTail(100000).label, "p9999");
  EXPECT_EQ(PickTail(1000).beyond, 10u);
  EXPECT_EQ(PickTail(25000).beyond, 25u);
  EXPECT_DOUBLE_EQ(PickTail(25000).q, 0.999);
}

TEST(PickTail, SyntheticLatenciesLeaveTheReportedCountBeyond) {
  // 12345 distinct latencies 1..12345 us: the p999 has 12 samples above.
  rstore::LatencyHistogram hist;
  std::vector<uint64_t> samples;
  for (uint64_t i = 1; i <= 12345; ++i) {
    samples.push_back(i * 1000);
    hist.Add(i * 1000);
  }
  const TailPick tail = PickTail(hist.count());
  ASSERT_EQ(tail.label, "p999");
  EXPECT_EQ(tail.beyond, 12u);
  // Exact order statistic: the reported count lies strictly above it.
  const auto rank = static_cast<size_t>(
      std::ceil(tail.q * static_cast<double>(samples.size())));
  const uint64_t exact = samples[rank - 1];
  const auto above = std::count_if(samples.begin(), samples.end(),
                                   [exact](uint64_t s) { return s > exact; });
  EXPECT_EQ(static_cast<uint64_t>(above), tail.beyond);
  // The histogram's estimate stays within its ~4% bucket resolution.
  const double est = static_cast<double>(hist.Quantile(tail.q));
  EXPECT_NEAR(est, static_cast<double>(exact), 0.04 * exact);
}

TEST(CountWithin, MatchesSyntheticDistribution) {
  rstore::LatencyHistogram hist;
  for (uint64_t i = 1; i <= 1000; ++i) hist.Add(i * 1000);
  EXPECT_EQ(CountWithin(hist, 0), 0u);
  EXPECT_EQ(CountWithin(hist, 2'000'000), 1000u);
  const uint64_t half = CountWithin(hist, 500'000);
  EXPECT_GE(half, 480u);
  EXPECT_LE(half, 520u);
  EXPECT_EQ(CountWithin(hist, 500'000), half);  // deterministic
}

TEST(StageLedger, P999BandSumsExactlyAndMatchesAttribution) {
  rstore::obs::RtraceConfig cfg;
  cfg.mode = rstore::obs::RtraceMode::kFull;
  rstore::obs::RtraceCollector collector(cfg);
  for (uint64_t i = 0; i < 5000; ++i) {
    rstore::obs::RtraceOp op;
    op.op_id = i;
    op.intended_ns = i * 10;
    for (uint32_t s = 0; s < rstore::obs::kRtraceStageCount; ++s) {
      op.stage_ns[s] = (i * 7919 + s * 104729) % (1000 + 300 * s);
    }
    uint64_t total = 0;
    for (uint64_t ns : op.stage_ns) total += ns;
    op.done_ns = op.intended_ns + total;
    collector.Record(i, op);
  }
  const rstore::obs::RtraceReport report = collector.Finalize();
  StageBand band = P999Band(report);
  EXPECT_GT(band.count, 0u);
  EXPECT_TRUE(band.Sums());
  const auto slice = report.Attribution(0.999, 1.0);
  EXPECT_EQ(band.count, slice.count);
  EXPECT_EQ(band.total_ns, slice.total_ns);
  EXPECT_EQ(band.stage_ns, slice.stage_ns);
  // Planted: a stage loses one nanosecond.
  band.stage_ns[3] -= 1;
  EXPECT_FALSE(band.Sums());
}

TEST(KvValue, RoundTripsAndRejectsCorruption) {
  std::byte value[kKvValueBytes];
  EncodeKvValue(KvRecord{42, 3, 17}, value);
  KvRecord rec;
  ASSERT_TRUE(DecodeKvValue(value, kKvValueBytes, 42, &rec));
  EXPECT_EQ(rec.writer, 3u);
  EXPECT_EQ(rec.seq, 17u);
  EXPECT_FALSE(DecodeKvValue(value, kKvValueBytes, 41, &rec));
  EXPECT_FALSE(DecodeKvValue(value, kKvValueBytes - 1, 42, &rec));
  value[50] ^= std::byte{1};
  EXPECT_FALSE(DecodeKvValue(value, kKvValueBytes, 42, &rec));
}

TEST(Pattern, DetectsAFlippedBitAndAStalePass) {
  std::vector<std::byte> buf(4096);
  const uint64_t key = PatternKey(7, 1, 2);
  for (uint64_t i = 0; i < buf.size(); i += 8) {
    const uint64_t w = PatternWord(key, 64 + i);
    std::memcpy(buf.data() + i, &w, 8);
  }
  EXPECT_EQ(CountPatternMismatches(buf.data(), buf.size(), key, 64), 0u);
  EXPECT_EQ(CountPatternMismatches(buf.data(), buf.size(),
                                   PatternKey(7, 1, 1), 64),
            buf.size() / 8);
  EXPECT_GT(CountPatternMismatches(buf.data(), buf.size(), key, 72), 0u);
  buf[100] ^= std::byte{0x10};
  EXPECT_EQ(CountPatternMismatches(buf.data(), buf.size(), key, 64), 1u);
}

TEST(ArrivalsBalance, Identity) {
  EXPECT_TRUE(ArrivalsBalance(10, 7, 2, 1));
  EXPECT_FALSE(ArrivalsBalance(10, 6, 2, 1));
}

// The round tests run the benchmark's own sizes, so they check the
// configuration it measures.
RoundConfig Round(Workload w, Plant plant = Plant::kNone, bool traced = false) {
  rstore::SetLogLevel(rstore::LogLevel::kWarn);
  RoundConfig cfg;
  cfg.workload = w;
  cfg.seed = 11;
  cfg.traced = traced;
  cfg.plant = plant;
  return cfg;
}

TEST(OutputChecks, StreamRwCatchesAPlantedStoredWord) {
  const RoundResult bad =
      RunRound(Round(Workload::kStreamRw, Plant::kStreamWord));
  ASSERT_EQ(bad.errors.size(), 1u);
  // One corrupted word, seen by each of the four read passes.
  EXPECT_EQ(bad.errors.front(),
            "stream read-back: 4 words differ from the written pattern");
}

TEST(OutputChecks, KvUpdateCatchesAWellFormedUnwrittenValue) {
  const RoundResult bad =
      RunRound(Round(Workload::kKvUpdate, Plant::kKvUnwritten));
  ASSERT_EQ(bad.errors.size(), 1u);
  EXPECT_EQ(bad.errors.front(),
            "kv read-back: 1 keys hold a value no client wrote");
}

// Clean rounds pass every output check, and a traced round reproduces the
// untraced one's virtual metrics exactly.
TEST(Determinism, TracedRoundsReproduceCleanUntracedRounds) {
  for (Workload w :
       {Workload::kFaninRead, Workload::kKvUpdate, Workload::kStreamRw}) {
    const RoundResult plain = RunRound(Round(w));
    const RoundResult traced = RunRound(Round(w, Plant::kNone, true));
    EXPECT_TRUE(plain.errors.empty()) << WorkloadName(w) << ": "
                                      << plain.errors.front();
    EXPECT_TRUE(traced.errors.empty()) << WorkloadName(w) << ": "
                                       << traced.errors.front();
    EXPECT_GT(plain.attempted, 0u);
    ASSERT_EQ(plain.virt.size(), traced.virt.size());
    for (size_t i = 0; i < plain.virt.size(); ++i) {
      EXPECT_EQ(plain.virt[i].value, traced.virt[i].value)
          << WorkloadName(w) << " " << plain.virt[i].name;
    }
    EXPECT_EQ(plain.fingerprint, traced.fingerprint) << WorkloadName(w);
  }
}

}  // namespace
}  // namespace perfbench
