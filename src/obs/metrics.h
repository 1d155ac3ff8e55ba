// MetricsRegistry: named counters, gauges, and histograms for the cluster.
//
// The registry is the single flat namespace every subsystem publishes into
// (catalog in docs/OBSERVABILITY.md). Instruments are created on first use
// and live for the registry's lifetime, so hot paths cache the returned
// pointer/reference and bump it without a map lookup. All state is integer
// (counts, nanos, kbits, bytes) — Snapshot() is therefore bit-identical
// across runs with equal seeds, which the chaos determinism tests assert.
//
// Single-threaded by design: the simulator runs every task on one thread, so
// "lock-free" here means literally free of locks rather than atomic.
#ifndef CALLIOPE_SRC_OBS_METRICS_H_
#define CALLIOPE_SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/util/histogram.h"

namespace calliope {

// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  void Add(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Point-in-time level that can move both ways.
class Gauge {
 public:
  Gauge() = default;
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Value-typed, ordered view of every instrument at one instant. Ordered maps
// (not unordered) so text/JSON renderings are stable across runs.
struct MetricsSnapshot {
  struct HistogramStats {
    HistogramStats() = default;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t p50 = 0;
    int64_t p99 = 0;
    bool operator==(const HistogramStats&) const = default;
  };

  MetricsSnapshot() = default;

  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  std::string ToText() const;
  std::string ToJson() const;
  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. Returned references are stable for the registry's life.
  // A name has one kind of publisher: counter() on a name published by
  // SetCounterCallback, or gauge() on one published by SetGaugeCallback (and
  // the other way round), aborts the process.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Registers a pull-mode gauge evaluated at Snapshot() time. Re-registering
  // a name replaces the previous callback (idempotent across MSU restarts).
  // The callback must outlive the registry or be replaced before it dangles.
  void SetGaugeCallback(const std::string& name, std::function<int64_t()> fn);

  // Pull-mode counter: like SetGaugeCallback but the value lands in the
  // snapshot's counters section. For subsystems that already keep their own
  // monotonic tallies — publishing them as counters (not gauges) is what
  // makes per-window deltas meaningful to the MetricsSampler.
  void SetCounterCallback(const std::string& name, std::function<int64_t()> fn);

  MetricsSnapshot Snapshot() const;

 private:
  // unique_ptr values so instrument addresses survive map rehash/rebalance.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<int64_t()>> gauge_callbacks_;
  std::map<std::string, std::function<int64_t()>> counter_callbacks_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_OBS_METRICS_H_
