#include "src/util/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace calliope {
namespace {

// Index of the exponential bin holding `value`: 0 for value <= 0, else
// 1 + floor(log2(value)), capped at the last bin.
size_t ExpBin(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  const auto width = static_cast<size_t>(std::bit_width(static_cast<uint64_t>(value)));
  return std::min(width, Histogram::kBinCount - 1);
}

}  // namespace

Histogram::Histogram() { bins_.fill(0); }

void Histogram::Record(int64_t value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += std::max<int64_t>(value, 0);
  ++bins_[ExpBin(value)];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < kBinCount; ++i) {
    bins_[i] += other.bins_[i];
  }
}

int64_t Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const auto target =
      std::min<int64_t>(count_, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t covered = 0;
  for (size_t i = 0; i < kBinCount; ++i) {
    covered += bins_[i];
    if (covered >= target) {
      // Upper edge of bin i is 2^i - 1 for integer samples (bin 0's edge is 0).
      const int64_t edge = i == 0 ? 0 : (i >= 63 ? INT64_MAX : (int64_t{1} << i) - 1);
      const int64_t lo = std::max<int64_t>(min_, 0);  // negatives clamp to zero
      return std::clamp(edge, lo, std::max(max_, lo));
    }
  }
  return max_;
}

LatenessHistogram::LatenessHistogram(SimTime bin_width, size_t bin_count)
    : bin_width_(bin_width), bin_count_(bin_count) {
  assert(bin_width.nanos() > 0);
  assert(bin_count > 0);
}

void LatenessHistogram::Record(SimTime lateness) {
  ++total_;
  max_recorded_ = std::max(max_recorded_, lateness);
  if (lateness.nanos() > 0) {
    lateness_sum_ns_ += lateness.nanos();
  }
  if (lateness.nanos() < 0) {
    ++underflow_;
    return;
  }
  const size_t bin = static_cast<size_t>(lateness.nanos() / bin_width_.nanos());
  if (bin >= bin_count_) {
    ++overflow_;
    return;
  }
  if (bin >= bins_.size()) {
    bins_.resize(bin + 1, 0);
  }
  ++bins_[bin];
}

void LatenessHistogram::Merge(const LatenessHistogram& other) {
  assert(bin_width_ == other.bin_width_ && bin_count_ == other.bin_count_);
  if (bins_.size() < other.bins_.size()) {
    bins_.resize(other.bins_.size(), 0);
  }
  for (size_t i = 0; i < other.bins_.size(); ++i) {
    bins_[i] += other.bins_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  lateness_sum_ns_ += other.lateness_sum_ns_;
  max_recorded_ = std::max(max_recorded_, other.max_recorded_);
}

double LatenessHistogram::FractionWithin(SimTime threshold) const {
  if (total_ == 0) {
    return 1.0;
  }
  int64_t covered = underflow_;
  const int64_t last_bin = threshold.nanos() / bin_width_.nanos();
  for (size_t i = 0; i < bins_.size() && static_cast<int64_t>(i) <= last_bin; ++i) {
    covered += bins_[i];
  }
  return static_cast<double>(covered) / static_cast<double>(total_);
}

int64_t LatenessHistogram::CountAbove(SimTime threshold) const {
  int64_t above = overflow_;
  const int64_t last_bin = threshold.nanos() / bin_width_.nanos();
  for (size_t i = 0; i < bins_.size(); ++i) {
    if (static_cast<int64_t>(i) > last_bin) {
      above += bins_[i];
    }
  }
  return above;
}

SimTime LatenessHistogram::Quantile(double q) const {
  if (total_ == 0) {
    return SimTime();
  }
  // ceil, not floor: the answer L must actually satisfy FractionWithin(L) >= q.
  // (A floor target let Quantile return a bin covering fewer than q of the
  // samples whenever q * total was fractional.)
  const auto target = std::min<int64_t>(
      total_, static_cast<int64_t>(std::ceil(q * static_cast<double>(total_))));
  int64_t covered = underflow_;
  if (covered >= target) {
    // Quantile falls among early samples, which count as exactly on time.
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

SimTime LatenessHistogram::MeanLateness() const {
  if (total_ == 0) {
    return SimTime();
  }
  return SimTime(lateness_sum_ns_ / total_);
}

std::vector<LatenessHistogram::CdfPoint> LatenessHistogram::CdfSeries(size_t points) const {
  std::vector<CdfPoint> out;
  if (total_ == 0 || points == 0) {
    return out;
  }
  // Find the last non-empty bin so the series spans the interesting range.
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
    // bins_ is still empty when every sample underflowed or overflowed.
    covered += i < bins_.size() ? bins_[i] : 0;
    if ((i + 1) % step == 0 || i == span - 1) {
      out.push_back({bin_width_ * static_cast<int64_t>(i + 1),
                     100.0 * static_cast<double>(covered) / static_cast<double>(total_)});
    }
  }
  if (overflow_ > 0) {
    out.push_back({SimTime::Max(), 100.0});
  }
  return out;
}

std::string LatenessHistogram::ToAsciiCdf(const std::string& label, size_t rows) const {
  std::string out = label + " (n=" + std::to_string(total_) + ")\n";
  const auto series = CdfSeries(rows);
  char buf[128];
  for (const auto& point : series) {
    const int bar = static_cast<int>(point.cumulative_percent / 2.0);
    if (point.lateness == SimTime::Max()) {
      std::snprintf(buf, sizeof(buf), "  >tail  %6.2f%% ", point.cumulative_percent);
    } else {
      std::snprintf(buf, sizeof(buf), "  %5lldms %6.2f%% ",
                    static_cast<long long>(point.lateness.millis()), point.cumulative_percent);
    }
    out += buf;
    out.append(static_cast<size_t>(bar), '#');
    out += '\n';
  }
  return out;
}

}  // namespace calliope
