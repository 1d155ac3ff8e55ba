// Strong unit types used throughout the simulation: time, byte counts and
// data rates. All simulation time is integer nanoseconds so runs are exactly
// reproducible; rates convert through 128-bit-safe integer math where the
// intermediate products could overflow.
#ifndef CALLIOPE_SRC_UTIL_UNITS_H_
#define CALLIOPE_SRC_UTIL_UNITS_H_

#include <cstdint>
#include <string>

namespace calliope {

// A point or span of simulated time, in nanoseconds. Negative spans are legal
// for arithmetic but never appear as schedule times.
class SimTime {
 public:
  constexpr SimTime() : ns_(0) {}
  constexpr explicit SimTime(int64_t nanoseconds) : ns_(nanoseconds) {}

  static constexpr SimTime Nanos(int64_t n) { return SimTime(n); }
  static constexpr SimTime Micros(int64_t us) { return SimTime(us * 1000); }
  static constexpr SimTime Millis(int64_t ms) { return SimTime(ms * 1000000); }
  static constexpr SimTime Seconds(int64_t s) { return SimTime(s * 1000000000); }
  static constexpr SimTime SecondsF(double s) {
    return SimTime(static_cast<int64_t>(s * 1e9));
  }
  static constexpr SimTime Max() { return SimTime(INT64_MAX); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr int64_t micros() const { return ns_ / 1000; }
  constexpr int64_t millis() const { return ns_ / 1000000; }
  constexpr double seconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double millis_f() const { return static_cast<double>(ns_) * 1e-6; }

  constexpr SimTime operator+(SimTime other) const { return SimTime(ns_ + other.ns_); }
  constexpr SimTime operator-(SimTime other) const { return SimTime(ns_ - other.ns_); }
  constexpr SimTime operator*(int64_t k) const { return SimTime(ns_ * k); }
  constexpr SimTime operator/(int64_t k) const { return SimTime(ns_ / k); }
  constexpr int64_t operator/(SimTime other) const { return ns_ / other.ns_; }
  SimTime& operator+=(SimTime other) {
    ns_ += other.ns_;
    return *this;
  }
  SimTime& operator-=(SimTime other) {
    ns_ -= other.ns_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  std::string ToString() const;  // e.g. "12.345ms"

 private:
  int64_t ns_;
};

// A byte count (size or offset).
class Bytes {
 public:
  constexpr Bytes() : n_(0) {}
  constexpr explicit Bytes(int64_t n) : n_(n) {}

  static constexpr Bytes KiB(int64_t k) { return Bytes(k * 1024); }
  static constexpr Bytes MiB(int64_t m) { return Bytes(m * 1024 * 1024); }
  static constexpr Bytes GiB(int64_t g) { return Bytes(g * 1024 * 1024 * 1024); }

  constexpr int64_t count() const { return n_; }
  constexpr double mebibytes() const { return static_cast<double>(n_) / (1024.0 * 1024.0); }
  // "MB" in the paper means 10^6 bytes ("All of the measurements in this
  // section are in 10^6 bytes/sec units"), so provide that view too.
  constexpr double megabytes() const { return static_cast<double>(n_) * 1e-6; }

  constexpr Bytes operator+(Bytes other) const { return Bytes(n_ + other.n_); }
  constexpr Bytes operator-(Bytes other) const { return Bytes(n_ - other.n_); }
  constexpr Bytes operator*(int64_t k) const { return Bytes(n_ * k); }
  constexpr Bytes operator/(int64_t k) const { return Bytes(n_ / k); }
  constexpr int64_t operator/(Bytes other) const { return n_ / other.n_; }
  Bytes& operator+=(Bytes other) {
    n_ += other.n_;
    return *this;
  }
  Bytes& operator-=(Bytes other) {
    n_ -= other.n_;
    return *this;
  }

  constexpr auto operator<=>(const Bytes&) const = default;

  std::string ToString() const;  // e.g. "256KiB"

 private:
  int64_t n_;
};

// A data rate in bits per second. Media rates in the paper are quoted in
// Mbit/s (e.g. 1.5 Mbit/s MPEG-1); device throughputs in 10^6 bytes/s.
class DataRate {
 public:
  constexpr DataRate() : bits_per_sec_(0) {}
  constexpr explicit DataRate(int64_t bits_per_sec) : bits_per_sec_(bits_per_sec) {}

  static constexpr DataRate BitsPerSec(int64_t b) { return DataRate(b); }
  static constexpr DataRate KilobitsPerSec(int64_t kb) { return DataRate(kb * 1000); }
  static constexpr DataRate MegabitsPerSec(double mb) {
    return DataRate(static_cast<int64_t>(mb * 1e6));
  }
  static constexpr DataRate BytesPerSec(int64_t bytes) { return DataRate(bytes * 8); }
  static constexpr DataRate MegabytesPerSec(double mbytes) {
    return DataRate(static_cast<int64_t>(mbytes * 8e6));
  }

  constexpr int64_t bits_per_sec() const { return bits_per_sec_; }
  constexpr int64_t bytes_per_sec() const { return bits_per_sec_ / 8; }
  constexpr double megabits_per_sec() const { return static_cast<double>(bits_per_sec_) * 1e-6; }
  constexpr double megabytes_per_sec() const {
    return static_cast<double>(bits_per_sec_) / 8e6;
  }
  constexpr bool is_zero() const { return bits_per_sec_ == 0; }

  // Time to move `size` at this rate, truncated to the nanosecond. Sizes up
  // to kMaxNarrowTransfer (~1.15 GB) divide in int64_t; larger ones use
  // __int128 (a 2-hour movie is ~1.35 GB, * 8e9 overflows int64). Both give
  // the same truncated quotient; the narrow one avoids a __divti3 call.
  static constexpr int64_t kMaxNarrowTransfer = INT64_MAX / 8000000000;
  constexpr SimTime TransferTime(Bytes size) const {
    if (bits_per_sec_ == 0) {
      return SimTime::Max();
    }
    if (size.count() >= 0 && size.count() <= kMaxNarrowTransfer) {
      return SimTime(size.count() * 8000000000 / bits_per_sec_);
    }
    __int128 numerator = static_cast<__int128>(size.count()) * 8 * 1000000000;
    return SimTime(static_cast<int64_t>(numerator / bits_per_sec_));
  }

  // Bytes moved over `span` at this rate.
  constexpr Bytes BytesIn(SimTime span) const {
    __int128 numerator = static_cast<__int128>(span.nanos()) * bits_per_sec_;
    return Bytes(static_cast<int64_t>(numerator / (8 * static_cast<__int128>(1000000000))));
  }

  constexpr DataRate operator+(DataRate other) const {
    return DataRate(bits_per_sec_ + other.bits_per_sec_);
  }
  constexpr DataRate operator-(DataRate other) const {
    return DataRate(bits_per_sec_ - other.bits_per_sec_);
  }
  constexpr DataRate operator*(int64_t k) const { return DataRate(bits_per_sec_ * k); }

  constexpr auto operator<=>(const DataRate&) const = default;

  std::string ToString() const;  // e.g. "1.50Mbit/s"

 private:
  int64_t bits_per_sec_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_UTIL_UNITS_H_
