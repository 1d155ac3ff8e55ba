// Tests for the utility layer: status/result, units, RNG, histogram, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace calliope {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  const Status error = NotFoundError("thing");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
  EXPECT_EQ(error.ToString(), "NOT_FOUND: thing");
  EXPECT_EQ(OkStatus().ToString(), "OK");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgumentError("not positive");
  }
  return v;
}

TEST(ResultTest, ValueAndError) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  EXPECT_EQ(good.value_or(-1), 5);
  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(-1), -1);
}

Status UseMacros(int v) {
  CALLIOPE_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  CALLIOPE_RETURN_IF_ERROR(parsed > 100 ? InvalidArgumentError("too big") : OkStatus());
  return OkStatus();
}

TEST(ResultTest, Macros) {
  EXPECT_TRUE(UseMacros(5).ok());
  EXPECT_EQ(UseMacros(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(UseMacros(500).message(), "too big");
}

TEST(UnitsTest, TimeArithmetic) {
  EXPECT_EQ(SimTime::Seconds(2) + SimTime::Millis(500), SimTime::Millis(2500));
  EXPECT_EQ(SimTime::Millis(10) * 3, SimTime::Millis(30));
  EXPECT_EQ(SimTime::Seconds(1) / SimTime::Millis(10), 100);
  EXPECT_LT(SimTime::Millis(1), SimTime::Millis(2));
  EXPECT_DOUBLE_EQ(SimTime::Millis(1500).seconds(), 1.5);
}

TEST(UnitsTest, BytesConversions) {
  EXPECT_EQ(Bytes::KiB(256).count(), 262144);
  EXPECT_EQ(Bytes::GiB(2) / Bytes::KiB(256), 8192);
  EXPECT_DOUBLE_EQ(Bytes(1000000).megabytes(), 1.0);
}

TEST(UnitsTest, DataRateTransferMath) {
  const DataRate mpeg = DataRate::MegabitsPerSec(1.5);
  // 4 KB at 1.5 Mbit/s is ~21.8 ms.
  EXPECT_NEAR(mpeg.TransferTime(Bytes::KiB(4)).millis_f(), 21.85, 0.05);
  // And the inverse: bytes in one second equals the byte rate.
  EXPECT_EQ(mpeg.BytesIn(SimTime::Seconds(1)).count(), mpeg.bytes_per_sec());
  // Large transfers must not overflow: a 2-hour movie.
  const SimTime t = mpeg.TransferTime(Bytes(1350000000));
  EXPECT_NEAR(t.seconds(), 7200.0, 1.0);
}

// TransferTime divides in int64_t up to kMaxNarrowTransfer bytes and in
// __int128 above; on either side it must give the truncated __int128
// quotient.
TEST(UnitsTest, TransferTimeNarrowPathMatchesWide) {
  const int64_t boundary = DataRate::kMaxNarrowTransfer;
  EXPECT_EQ(boundary, 1152921504);
  EXPECT_TRUE(static_cast<__int128>(boundary) * 8000000000 <= INT64_MAX);
  EXPECT_TRUE(static_cast<__int128>(boundary + 1) * 8000000000 > INT64_MAX);
  const int64_t sizes[] = {0,           1,        2,           1500,          4352,
                           8192,        1 << 20,  boundary - 1, boundary,     boundary + 1,
                           1350000000,  int64_t{1} << 40,       INT64_MAX / 16};
  const int64_t rates[] = {1,          2,          3,           7,          1000,
                           1500000,    100000000,  424000000,   7999999999, 8000000000,
                           8000000001, INT64_MAX / 2, INT64_MAX};
  int compared = 0;
  for (const int64_t size : sizes) {
    for (const int64_t rate : rates) {
      const __int128 wide = static_cast<__int128>(size) * 8000000000 / rate;
      if (wide > INT64_MAX) {
        continue;  // not representable as a SimTime on either path
      }
      EXPECT_EQ(DataRate(rate).TransferTime(Bytes(size)).nanos(), static_cast<int64_t>(wide))
          << size << " B at " << rate << " bit/s";
      ++compared;
    }
  }
  EXPECT_GT(compared, 120);
}

TEST(UnitsTest, ZeroRateNeverDivides) {
  EXPECT_EQ(DataRate().TransferTime(Bytes(100)), SimTime::Max());
}

TEST(RngTest, DeterministicAndDistinctStreams) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng a2(1);
  EXPECT_NE(a2.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    sum += rng.NextExponential(3.0);
  }
  EXPECT_NEAR(sum / 20000, 3.0, 0.1);
}

TEST(ZipfTest, HeadIsHot) {
  Rng rng(6);
  ZipfDistribution zipf(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[0], 20000 / 4);  // rank 0 dominates
}

TEST(HistogramTest, FractionAndQuantiles) {
  LatenessHistogram histogram;
  for (int i = 0; i < 90; ++i) {
    histogram.Record(SimTime::Millis(10));
  }
  for (int i = 0; i < 10; ++i) {
    histogram.Record(SimTime::Millis(200));
  }
  EXPECT_EQ(histogram.total_count(), 100);
  EXPECT_DOUBLE_EQ(histogram.FractionWithin(SimTime::Millis(50)), 0.9);
  EXPECT_DOUBLE_EQ(histogram.FractionWithin(SimTime::Millis(300)), 1.0);
  EXPECT_EQ(histogram.Quantile(0.5), SimTime::Millis(11));  // upper bin edge
  EXPECT_EQ(histogram.MaxRecorded(), SimTime::Millis(200));
}

TEST(HistogramTest, EarlyPacketsCountOnTime) {
  LatenessHistogram histogram;
  histogram.Record(SimTime::Millis(-5));
  histogram.Record(SimTime::Millis(5));
  EXPECT_EQ(histogram.underflow_count(), 1);
  EXPECT_DOUBLE_EQ(histogram.FractionWithin(SimTime::Millis(10)), 1.0);
}

TEST(HistogramTest, OverflowBin) {
  LatenessHistogram histogram(SimTime::Millis(1), 100);
  histogram.Record(SimTime::Seconds(10));
  EXPECT_EQ(histogram.overflow_count(), 1);
  EXPECT_EQ(histogram.Quantile(1.0), SimTime::Max());
}

// Regression: Quantile used a floor()ed rank target, so for fractional
// q * total it could return a lateness L with FractionWithin(L) < q —
// asymmetric with FractionWithin's own accounting.
TEST(HistogramTest, QuantileAgreesWithFractionWithin) {
  LatenessHistogram histogram;
  histogram.Record(SimTime::Millis(1));
  histogram.Record(SimTime::Millis(10));
  histogram.Record(SimTime::Millis(100));
  // ceil(0.5 * 3) = 2 samples must be covered: the 10 ms bin, not the 1 ms one.
  const SimTime median = histogram.Quantile(0.5);
  EXPECT_EQ(median, SimTime::Millis(11));
  EXPECT_GE(histogram.FractionWithin(median), 0.5);
}

// The underflow convention: early samples clamp to zero lateness in every
// aggregate (FractionWithin, Quantile, MeanLateness); MaxRecorded stays raw.
TEST(HistogramTest, UnderflowConventionUnifiedAcrossAggregates) {
  LatenessHistogram histogram;
  for (int i = 0; i < 3; ++i) {
    histogram.Record(SimTime::Millis(-50));
  }
  histogram.Record(SimTime::Millis(4));
  EXPECT_EQ(histogram.underflow_count(), 3);
  // 3 of 4 samples are early: the median sits in the underflow bin and is
  // reported as exactly on time, not negative and not the 4 ms bin.
  EXPECT_EQ(histogram.Quantile(0.5), SimTime());
  EXPECT_GE(histogram.FractionWithin(SimTime()), 0.75);
  // Mean clamps the early samples to zero: 4 ms / 4 samples = 1 ms.
  EXPECT_EQ(histogram.MeanLateness(), SimTime::Millis(1));
  EXPECT_EQ(histogram.MaxRecorded(), SimTime::Millis(4));
  EXPECT_EQ(histogram.CountAbove(SimTime()), 1);
  EXPECT_EQ(histogram.CountAbove(SimTime::Millis(10)), 0);
}

TEST(HistogramTest, GeneralHistogramExponentialBins) {
  Histogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0);
  histogram.Record(-7);  // clamps to the zero bin
  histogram.Record(0);
  histogram.Record(3);
  histogram.Record(100);
  histogram.Record(1000);
  EXPECT_EQ(histogram.count(), 5);
  EXPECT_EQ(histogram.sum(), 1103);  // negative sample contributes zero
  EXPECT_EQ(histogram.min(), -7);
  EXPECT_EQ(histogram.max(), 1000);
  EXPECT_EQ(histogram.Quantile(0.5), 3);      // bin [2,4) upper edge
  EXPECT_EQ(histogram.Quantile(1.0), 1000);   // clamped to witnessed max
  Histogram other;
  other.Record(5000);
  histogram.Merge(other);
  EXPECT_EQ(histogram.count(), 6);
  EXPECT_EQ(histogram.max(), 5000);
}

TEST(HistogramTest, MergeAddsCounts) {
  LatenessHistogram a, b;
  a.Record(SimTime::Millis(1));
  b.Record(SimTime::Millis(2));
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 2);
  EXPECT_EQ(a.MaxRecorded(), SimTime::Millis(2));
}

// Dense reference for LatenessHistogram: every one of its `bin_count` bins
// exists from the start, and each query walks them all.
class DenseLatenessReference {
 public:
  DenseLatenessReference(SimTime bin_width, size_t bin_count)
      : bin_width_(bin_width), bins_(bin_count, 0) {}

  void Record(SimTime lateness) {
    ++total_;
    if (lateness < SimTime()) {
      ++underflow_;
      return;
    }
    const auto bin = static_cast<size_t>(lateness / bin_width_);
    if (bin >= bins_.size()) {
      ++overflow_;
      return;
    }
    ++bins_[bin];
  }
  void Merge(const DenseLatenessReference& other) {
    for (size_t i = 0; i < bins_.size(); ++i) {
      bins_[i] += other.bins_[i];
    }
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
  }
  double FractionWithin(SimTime threshold) const {
    if (total_ == 0) {
      return 1.0;
    }
    int64_t covered = underflow_;
    for (size_t i = 0; i < bins_.size(); ++i) {
      if (static_cast<int64_t>(i) <= threshold / bin_width_) {
        covered += bins_[i];
      }
    }
    return static_cast<double>(covered) / static_cast<double>(total_);
  }
  int64_t CountAbove(SimTime threshold) const {
    int64_t above = overflow_;
    for (size_t i = 0; i < bins_.size(); ++i) {
      if (static_cast<int64_t>(i) > threshold / bin_width_) {
        above += bins_[i];
      }
    }
    return above;
  }
  SimTime Quantile(double q) const {
    if (total_ == 0) {
      return SimTime();
    }
    const auto target = std::min<int64_t>(
        total_, static_cast<int64_t>(std::ceil(q * static_cast<double>(total_))));
    int64_t covered = underflow_;
    if (covered >= target) {
      return SimTime();
    }
    for (size_t i = 0; i < bins_.size(); ++i) {
      covered += bins_[i];
      if (covered >= target) {
        return bin_width_ * static_cast<int64_t>(i + 1);
      }
    }
    return SimTime::Max();
  }
  std::vector<std::pair<SimTime, double>> CdfSeries(size_t points) const {
    std::vector<std::pair<SimTime, double>> out;
    if (total_ == 0 || points == 0) {
      return out;
    }
    size_t last = 0;
    for (size_t i = 0; i < bins_.size(); ++i) {
      if (bins_[i] > 0) {
        last = i;
      }
    }
    const size_t span = last + 1;
    const size_t step = std::max<size_t>(1, span / points);
    int64_t covered = underflow_;
    for (size_t i = 0; i < span; ++i) {
      covered += bins_[i];
      if ((i + 1) % step == 0 || i == span - 1) {
        out.emplace_back(bin_width_ * static_cast<int64_t>(i + 1),
                         100.0 * static_cast<double>(covered) / static_cast<double>(total_));
      }
    }
    if (overflow_ > 0) {
      out.emplace_back(SimTime::Max(), 100.0);
    }
    return out;
  }

 private:
  SimTime bin_width_;
  std::vector<int64_t> bins_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t total_ = 0;
};

void ExpectSameAnswers(const LatenessHistogram& lazy, const DenseLatenessReference& dense,
                       const std::string& label) {
  SCOPED_TRACE(label);
  for (int64_t us = -2000; us <= 1'300'000; us += 997) {
    const SimTime threshold = SimTime::Micros(us);
    ASSERT_EQ(lazy.FractionWithin(threshold), dense.FractionWithin(threshold)) << us;
    ASSERT_EQ(lazy.CountAbove(threshold), dense.CountAbove(threshold)) << us;
  }
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    EXPECT_EQ(lazy.Quantile(q), dense.Quantile(q)) << q;
  }
  for (size_t points : {size_t{0}, size_t{1}, size_t{7}, size_t{60}, size_t{5000}}) {
    const auto series = lazy.CdfSeries(points);
    const auto expected = dense.CdfSeries(points);
    ASSERT_EQ(series.size(), expected.size()) << points;
    for (size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(series[i].lateness, expected[i].first) << points << " row " << i;
      EXPECT_EQ(series[i].cumulative_percent, expected[i].second) << points << " row " << i;
    }
  }
}

TEST(HistogramTest, LazilyGrownBinsAnswerLikeDenseReference) {
  // Seeded samples: mostly the first few bins, a tail to ~800 ms, some early
  // (underflow) and some past the last bin (overflow). The small histograms
  // record only low bins, so merges combine very different bin extents.
  Rng rng(77);
  const auto draw = [&rng](int kind) {
    switch (kind) {
      case 0:
        return SimTime::Micros(static_cast<int64_t>(rng.NextBelow(4000)));
      case 1:
        return SimTime::Micros(static_cast<int64_t>(rng.NextBelow(800'000)));
      case 2:
        return SimTime::Micros(-static_cast<int64_t>(rng.NextBelow(50'000)) - 1);
      default:
        return SimTime::Millis(1000) + SimTime::Micros(static_cast<int64_t>(rng.NextBelow(5000)));
    }
  };
  const auto pick_kind = [&rng] {
    const uint64_t roll = rng.NextBelow(100);
    return roll < 85 ? 0 : roll < 93 ? 1 : roll < 97 ? 2 : 3;
  };
  const SimTime width = SimTime::Millis(1);
  const size_t bins = 1000;
  LatenessHistogram wide(width, bins);
  DenseLatenessReference wide_ref(width, bins);
  LatenessHistogram narrow(width, bins);
  DenseLatenessReference narrow_ref(width, bins);
  LatenessHistogram empty(width, bins);
  DenseLatenessReference empty_ref(width, bins);
  LatenessHistogram outside(width, bins);  // only underflow and overflow samples
  DenseLatenessReference outside_ref(width, bins);
  for (int i = 0; i < 20000; ++i) {
    const SimTime sample = draw(pick_kind());
    wide.Record(sample);
    wide_ref.Record(sample);
  }
  for (int i = 0; i < 500; ++i) {
    const SimTime sample = draw(0);
    narrow.Record(sample);
    narrow_ref.Record(sample);
  }
  for (int i = 0; i < 50; ++i) {
    const SimTime sample = draw(2 + i % 2);
    outside.Record(sample);
    outside_ref.Record(sample);
  }
  ExpectSameAnswers(wide, wide_ref, "wide");
  ExpectSameAnswers(narrow, narrow_ref, "narrow");
  ExpectSameAnswers(empty, empty_ref, "empty");
  ExpectSameAnswers(outside, outside_ref, "outside");
  EXPECT_EQ(outside.CdfSeries(10).size(), 2u);  // bin 0 at 0%, then the overflow row

  // Merge a short histogram into a long one and a long into a short one.
  LatenessHistogram long_into_short = narrow;
  DenseLatenessReference long_into_short_ref = narrow_ref;
  long_into_short.Merge(wide);
  long_into_short_ref.Merge(wide_ref);
  ExpectSameAnswers(long_into_short, long_into_short_ref, "narrow+wide");
  LatenessHistogram short_into_long = wide;
  DenseLatenessReference short_into_long_ref = wide_ref;
  short_into_long.Merge(narrow);
  short_into_long_ref.Merge(narrow_ref);
  ExpectSameAnswers(short_into_long, short_into_long_ref, "wide+narrow");
  LatenessHistogram into_empty = empty;
  DenseLatenessReference into_empty_ref = empty_ref;
  into_empty.Merge(narrow);
  into_empty.Merge(outside);
  into_empty_ref.Merge(narrow_ref);
  into_empty_ref.Merge(outside_ref);
  ExpectSameAnswers(into_empty, into_empty_ref, "empty+narrow+outside");
}

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable table({"a", "long header"});
  table.AddRow({"x", "1"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| a | long header |"), std::string::npos);
  EXPECT_NE(out.find("| x | 1           |"), std::string::npos);
}

}  // namespace
}  // namespace calliope
