#include "src/obs/sampler.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace calliope {

namespace {

int64_t CounterDelta(const MetricsSnapshot& now, const MetricsSnapshot& before,
                     const std::string& name) {
  const auto current = now.counters.find(name);
  if (current == now.counters.end()) {
    return 0;
  }
  const auto prior = before.counters.find(name);
  return current->second - (prior == before.counters.end() ? 0 : prior->second);
}

int64_t GaugeValue(const MetricsSnapshot& now, const std::string& name) {
  const auto it = now.gauges.find(name);
  return it == now.gauges.end() ? 0 : it->second;
}

// Appends `value` to the series for `name`, zero-backfilling instruments that
// first appeared mid-run so every series stays `windows` entries long.
template <typename T>
void AppendSample(std::map<std::string, std::vector<T>>& series, const std::string& name,
                  int64_t windows_before, T value) {
  std::vector<T>& samples = series[name];
  samples.resize(static_cast<size_t>(windows_before));
  samples.push_back(value);
}

}  // namespace

MetricsSampler::MetricsSampler(Simulator& sim, MetricsRegistry& metrics, TraceRecorder& trace,
                               SamplerConfig config, std::vector<SloSpec> slos)
    : sim_(&sim), metrics_(metrics), trace_(trace), config_(std::move(config)),
      slos_(std::move(slos)), ticks_metric_(metrics.counter("obs.sampler.ticks")) {
  std::sort(slos_.begin(), slos_.end(),
            [](const SloSpec& a, const SloSpec& b) { return a.name < b.name; });
  states_.resize(slos_.size());
  for (size_t i = 0; i < slos_.size(); ++i) {
    states_[i].report.name = slos_[i].name;
    states_[i].report.threshold = slos_[i].threshold;
    states_[i].report.min_breach_windows = slos_[i].min_breach_windows;
    metrics.SetCounterCallback("slo." + slos_[i].name + ".breach_windows",
                               [this, i] { return states_[i].report.breach_windows; });
  }
}

MetricsSampler::~MetricsSampler() { tick_token_.Cancel(); }

void MetricsSampler::Start() {
  if (config_.period <= SimTime()) {
    return;
  }
  tick_token_ = sim_->ScheduleCancelableAt(sim_->Now() + config_.period, [this] { Tick(); });
}

void MetricsSampler::Tick() {
  // Bump before the snapshot so obs.sampler.ticks counts this window in its
  // own delta series (exactly one per window).
  ticks_metric_.Add();
  const MetricsSnapshot snapshot = metrics_.Snapshot();
  const int64_t windows_before = windows_;

  QosWindowRow row;
  row.window = windows_;
  row.end_us = sim_->Now().micros();
  row.packets = qos_.window_lateness_.total_count();
  row.late_packets = qos_.window_lateness_.CountAbove(SimTime());
  row.lateness_max_us = std::max<int64_t>(qos_.window_lateness_.MaxRecorded().micros(), 0);
  // Quantiles report the bin's upper edge; clamp to the exact window max so a
  // catastrophic window reports its true worst lateness, not the top edge of
  // an exponential bin.
  row.lateness_p50_us =
      std::min(qos_.window_lateness_.Quantile(0.5).micros(), row.lateness_max_us);
  row.lateness_p99_us =
      std::min(qos_.window_lateness_.Quantile(0.99).micros(), row.lateness_max_us);
  row.max_gap_us = qos_.window_max_gap_.micros();
  row.pending_depth = GaugeValue(snapshot, "coord.pending.depth");
  row.cache_hits = CounterDelta(snapshot, previous_, "sim.cache.interval_hits") +
                   CounterDelta(snapshot, previous_, "sim.cache.prefix_hits");
  row.cache_misses = CounterDelta(snapshot, previous_, "sim.cache.misses");
  qos_.window_lateness_ = LatenessHistogram();
  qos_.window_max_gap_ = SimTime();

  for (const auto& [name, value] : snapshot.counters) {
    AppendSample(counter_deltas_, name, windows_before,
                 value - (previous_.counters.count(name) ? previous_.counters.at(name) : 0));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    AppendSample(gauge_samples_, name, windows_before, value);
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    HistogramRow hist_row;
    const auto prior = previous_.histograms.find(name);
    hist_row.count_delta =
        stats.count - (prior == previous_.histograms.end() ? 0 : prior->second.count);
    hist_row.p50 = stats.p50;
    hist_row.p99 = stats.p99;
    hist_row.max = stats.max;
    AppendSample(histogram_rows_, name, windows_before, hist_row);
  }

  for (size_t i = 0; i < slos_.size(); ++i) {
    EvaluateSlo(slos_[i], states_[i], row, SignalValue(slos_[i], row, snapshot));
  }

  qos_rows_.push_back(row);
  previous_ = snapshot;
  ++windows_;
  if (windows_ < config_.max_windows) {
    tick_token_ = sim_->ScheduleCancelableAt(sim_->Now() + config_.period, [this] { Tick(); });
  }
}

int64_t MetricsSampler::SignalValue(const SloSpec& spec, const QosWindowRow& row,
                                    const MetricsSnapshot& snapshot) const {
  switch (spec.signal) {
    case SloSpec::Signal::kLatenessP50:
      return row.lateness_p50_us;
    case SloSpec::Signal::kLatenessP99:
      return row.lateness_p99_us;
    case SloSpec::Signal::kLatenessMax:
      return row.lateness_max_us;
    case SloSpec::Signal::kMaxGap:
      return row.max_gap_us;
    case SloSpec::Signal::kPendingDepth:
      return row.pending_depth;
    case SloSpec::Signal::kCacheMissPct: {
      const int64_t total = row.cache_hits + row.cache_misses;
      return total == 0 ? 0 : 100 * row.cache_misses / total;
    }
    case SloSpec::Signal::kCounterDelta:
      return CounterDelta(snapshot, previous_, spec.metric);
    case SloSpec::Signal::kGaugeValue:
      return GaugeValue(snapshot, spec.metric);
  }
  return 0;
}

void MetricsSampler::EvaluateSlo(const SloSpec& spec, SloState& state, const QosWindowRow& row,
                                 int64_t value) {
  state.values.push_back(value);
  ++state.report.windows_evaluated;
  if (value <= spec.threshold) {
    if (state.breaching) {
      trace_.Instant("slo", "slo", "slo-clear:" + spec.name,
                     "after " + std::to_string(state.run) + " breach windows");
    }
    state.run = 0;
    state.breaching = false;
    return;
  }
  if (state.run == 0) {
    state.run_first_us = row.end_us;
    state.run_worst_value = value;
    state.run_worst_window = row.window;
  } else if (value > state.run_worst_value) {
    state.run_worst_value = value;
    state.run_worst_window = row.window;
  }
  ++state.run;
  if (!state.breaching && state.run >= spec.min_breach_windows) {
    // The run qualifies as an episode: count its windows retroactively.
    state.breaching = true;
    ++state.report.breach_episodes;
    state.report.breach_windows += state.run;
    if (state.report.first_breach_us == 0) {
      state.report.first_breach_us = state.run_first_us;
    }
    trace_.Instant("slo", "slo", "slo-breach:" + spec.name,
                   "value " + std::to_string(value) + " > threshold " +
                       std::to_string(spec.threshold));
  } else if (state.breaching) {
    ++state.report.breach_windows;
  }
  if (state.breaching) {
    state.report.last_breach_us = row.end_us;
    if (state.run_worst_value > state.report.worst_value ||
        state.report.worst_window < 0) {
      state.report.worst_value = state.run_worst_value;
      state.report.worst_window = state.run_worst_window;
    }
  }
}

bool MetricsSampler::SloBreaching(const std::string& name) const {
  for (size_t i = 0; i < slos_.size(); ++i) {
    if (slos_[i].name == name) {
      return states_[i].breaching;
    }
  }
  return false;
}

bool MetricsSampler::AnySloBreaching() const {
  for (const SloState& state : states_) {
    if (state.breaching) {
      return true;
    }
  }
  return false;
}

TimelineReport MetricsSampler::BuildTimelineReport() const {
  TimelineReport timeline;
  timeline.window_us = config_.period.micros();
  timeline.windows = windows_;
  timeline.qos = qos_rows_;
  for (const SloState& state : states_) {
    SloBreachReport report = state.report;
    report.breached_us = report.breach_windows * timeline.window_us;
    timeline.slos.push_back(std::move(report));
  }
  return timeline;
}

Status MetricsSampler::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError("cannot write " + path);
  }
  std::fprintf(file,
               "window,end_us,packets,late_packets,lateness_p50_us,lateness_p99_us,"
               "lateness_max_us,max_gap_us,pending_depth,cache_hits,cache_misses");
  for (const SloSpec& spec : slos_) {
    std::fprintf(file, ",slo.%s", spec.name.c_str());
  }
  std::fprintf(file, "\n");
  for (size_t w = 0; w < qos_rows_.size(); ++w) {
    const QosWindowRow& row = qos_rows_[w];
    std::fprintf(file, "%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld",
                 static_cast<long long>(row.window), static_cast<long long>(row.end_us),
                 static_cast<long long>(row.packets), static_cast<long long>(row.late_packets),
                 static_cast<long long>(row.lateness_p50_us),
                 static_cast<long long>(row.lateness_p99_us),
                 static_cast<long long>(row.lateness_max_us),
                 static_cast<long long>(row.max_gap_us),
                 static_cast<long long>(row.pending_depth),
                 static_cast<long long>(row.cache_hits),
                 static_cast<long long>(row.cache_misses));
    for (const SloState& state : states_) {
      std::fprintf(file, ",%lld", static_cast<long long>(state.values[w]));
    }
    std::fprintf(file, "\n");
  }
  std::fclose(file);
  return OkStatus();
}

}  // namespace calliope
