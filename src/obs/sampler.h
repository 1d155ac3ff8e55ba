// Continuous telemetry: simulated-time metric timelines, windowed QoS
// aggregation, and declarative SLO monitors (DESIGN.md §5.7).
//
// The MetricsRegistry and ClusterReport are snapshot-at-end: a run that
// breaches its lateness budget for ten seconds mid-flight and then recovers
// looks identical to a clean run. The MetricsSampler closes that gap. On a
// configurable simulated-time cadence it snapshots the registry into
// per-instrument time series (counters as per-window deltas, gauges as point
// samples, histograms as per-window rows), aggregates the hot-path QoS
// signals the MSUs and clients feed into a QosAccumulator (per-window
// lateness quantiles, delivery-gap max, pending-queue depth, cache hit mix),
// and evaluates declarative SloSpecs at every tick, accumulating a breach log
// into the ClusterReport's timeline section.
//
// Observer-only, like everything else in src/obs: the sampler's tick event
// reads instruments and never feeds back into the simulation, so enabling it
// cannot perturb a deterministic run. Hot paths pay one null-check branch
// when no sampler is configured. Everything stored is integer-valued and
// emitted in sorted order, so equal-seed runs stay byte-identical.
#ifndef CALLIOPE_SRC_OBS_SAMPLER_H_
#define CALLIOPE_SRC_OBS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/histogram.h"
#include "src/util/status.h"

namespace calliope {

struct SamplerConfig {
  SamplerConfig() = default;

  // Sampling cadence on the simulated clock. Zero (the default) disables the
  // sampler entirely — no events scheduled, no series stored, no timeline in
  // the ClusterReport.
  SimTime period;
  // Hard stop after this many windows: the self-rescheduling tick would
  // otherwise keep an idle simulation's event queue nonempty forever.
  int64_t max_windows = 1 << 20;
};

// One declarative service-level objective, evaluated at every sampling tick.
// A window breaches when its signal value is strictly greater than
// `threshold`; a run of at least `min_breach_windows` consecutive breaching
// windows is a breach episode (shorter blips are ignored — the knob that
// separates a real fault window from one unlucky packet).
struct SloSpec {
  // What to measure each window. The QoS signals come from the windowed
  // accumulator (integer µs / counts); the last two evaluate an arbitrary
  // registry instrument by name.
  enum class Signal {
    kLatenessP50,    // per-window MSU send-lateness p50, µs
    kLatenessP99,    // per-window MSU send-lateness p99, µs
    kLatenessMax,    // per-window MSU send-lateness max, µs (clamped at 0)
    kMaxGap,         // per-window client inter-arrival gap max, µs
    kPendingDepth,   // coord.pending.depth point sample
    kCacheMissPct,   // 100 * misses / (hits + misses) this window, 0 when idle
    kCounterDelta,   // per-window delta of counter `metric`
    kGaugeValue,     // point sample of gauge `metric`
  };

  SloSpec() = default;

  std::string name;  // report key and slo.<name>.* metric stem; [a-z0-9_-]+
  Signal signal = Signal::kLatenessP99;
  std::string metric;  // instrument name for kCounterDelta / kGaugeValue
  int64_t threshold = 0;
  int64_t min_breach_windows = 1;
};

// The windowed QoS sink the delivery hot paths feed. MSUs record every
// packet's send lateness (both fidelities report through
// MsuStream::AccountSentPacket, so the feed is mode-agnostic); clients record
// every media inter-arrival gap. The sampler drains and resets it each tick.
// Call sites hold a raw pointer and null-check it, exactly like the cached
// metric instrument pointers — no sampler, no cost beyond the branch.
class QosAccumulator {
 public:
  QosAccumulator() = default;
  QosAccumulator(const QosAccumulator&) = delete;
  QosAccumulator& operator=(const QosAccumulator&) = delete;

  void RecordLateness(SimTime lateness) { window_lateness_.Record(lateness); }
  void RecordGap(SimTime gap) {
    if (gap > window_max_gap_) {
      window_max_gap_ = gap;
    }
  }

 private:
  friend class MetricsSampler;

  LatenessHistogram window_lateness_;
  SimTime window_max_gap_;
};

class MetricsSampler {
 public:
  // SloSpecs are evaluated in name order (sorted here) so the report's slos
  // section is deterministic regardless of config order. Publishes the
  // sampler's own instruments (obs.sampler.ticks, slo.<name>.breach_windows)
  // here, so they appear as zeros in snapshots taken before the first tick.
  MetricsSampler(Simulator& sim, MetricsRegistry& metrics, TraceRecorder& trace,
                 SamplerConfig config, std::vector<SloSpec> slos);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  // Schedules the first tick one period from now.
  void Start();

  QosAccumulator* qos() { return &qos_; }
  const SamplerConfig& config() const { return config_; }
  int64_t windows() const { return windows_; }

  // Per-instrument series, one entry per closed window, keyed by instrument
  // name. Counters (including pull-mode counters) store the per-window delta;
  // gauges the point sample at the tick. Instruments created mid-run are
  // backfilled with zeros so every series has `windows()` entries.
  const std::map<std::string, std::vector<int64_t>>& counter_deltas() const {
    return counter_deltas_;
  }
  const std::map<std::string, std::vector<int64_t>>& gauge_samples() const {
    return gauge_samples_;
  }
  // Histogram rows: per-window sample-count delta plus the cumulative
  // quantiles at the window's close (the registry histogram never resets; the
  // truly windowed lateness quantiles live in the QoS rows instead).
  struct HistogramRow {
    HistogramRow() = default;
    int64_t count_delta = 0;
    int64_t p50 = 0;
    int64_t p99 = 0;
    int64_t max = 0;
    bool operator==(const HistogramRow&) const = default;
  };
  const std::map<std::string, std::vector<HistogramRow>>& histogram_rows() const {
    return histogram_rows_;
  }
  const std::vector<QosWindowRow>& qos_windows() const { return qos_rows_; }
  // Per-window signal values for the SLO at `slos()[i]`, parallel to
  // qos_windows().
  const std::vector<SloSpec>& slos() const { return slos_; }
  const std::vector<int64_t>& slo_values(size_t i) const { return states_.at(i).values; }

  // Live breach probe: true while the named SLO monitor is inside a breach
  // episode (run >= min_breach_windows, not yet cleared). Unknown names read
  // as false. This is what the Coordinator's saturation governor polls.
  bool SloBreaching(const std::string& name) const;
  // True if any configured SLO monitor is currently breaching.
  bool AnySloBreaching() const;

  // The ClusterReport timeline section: QoS rows plus the accumulated breach
  // log per SLO, sorted by name.
  TimelineReport BuildTimelineReport() const;

  // Wide CSV for plotting: one row per window with the QoS columns followed
  // by one `slo.<name>` value column per spec (sorted by name).
  Status WriteCsv(const std::string& path) const;

 private:
  // Rolling breach bookkeeping for one SloSpec.
  struct SloState {
    SloState() = default;
    std::vector<int64_t> values;  // signal value per window
    int64_t run = 0;              // consecutive breaching windows ending now
    int64_t run_first_us = 0;     // end time of the run's first window
    int64_t run_worst_value = 0;
    int64_t run_worst_window = -1;
    bool breaching = false;       // run >= min_breach_windows
    SloBreachReport report;  // report.breach_windows is published by pull
  };

  void Tick();
  int64_t SignalValue(const SloSpec& spec, const QosWindowRow& row,
                      const MetricsSnapshot& snapshot) const;
  void EvaluateSlo(const SloSpec& spec, SloState& state, const QosWindowRow& row,
                   int64_t value);

  Simulator* sim_;
  MetricsRegistry& metrics_;
  TraceRecorder& trace_;
  SamplerConfig config_;
  std::vector<SloSpec> slos_;      // sorted by name
  std::vector<SloState> states_;   // parallel to slos_
  QosAccumulator qos_;
  Counter& ticks_metric_;
  EventToken tick_token_;
  int64_t windows_ = 0;
  MetricsSnapshot previous_;  // last tick's snapshot, for deltas
  std::map<std::string, std::vector<int64_t>> counter_deltas_;
  std::map<std::string, std::vector<int64_t>> gauge_samples_;
  std::map<std::string, std::vector<HistogramRow>> histogram_rows_;
  std::vector<QosWindowRow> qos_rows_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_OBS_SAMPLER_H_
