#include "src/obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace calliope {
namespace {

// A name with two publishers would snapshot one and read the other.
[[noreturn]] void SecondPublisher(const std::string& name) {
  std::fprintf(stderr, "MetricsRegistry: %s already has a publisher of another kind\n",
               name.c_str());
  std::abort();
}

void AppendJsonString(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  if (counter_callbacks_.contains(name)) {
    SecondPublisher(name);
  }
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  if (gauge_callbacks_.contains(name)) {
    SecondPublisher(name);
  }
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

void MetricsRegistry::SetGaugeCallback(const std::string& name, std::function<int64_t()> fn) {
  if (gauges_.contains(name)) {
    SecondPublisher(name);
  }
  gauge_callbacks_[name] = std::move(fn);
}

void MetricsRegistry::SetCounterCallback(const std::string& name, std::function<int64_t()> fn) {
  if (counters_.contains(name)) {
    SecondPublisher(name);
  }
  counter_callbacks_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, fn] : counter_callbacks_) {
    snapshot.counters[name] = fn();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, fn] : gauge_callbacks_) {
    snapshot.gauges[name] = fn();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramStats stats;
    stats.count = histogram->count();
    stats.sum = histogram->sum();
    stats.min = histogram->min();
    stats.max = histogram->max();
    stats.p50 = histogram->Quantile(0.50);
    stats.p99 = histogram->Quantile(0.99);
    snapshot.histograms[name] = stats;
  }
  return snapshot;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, stats] : histograms) {
    out += name + " count=" + std::to_string(stats.count) + " sum=" + std::to_string(stats.sum) +
           " min=" + std::to_string(stats.min) + " max=" + std::to_string(stats.max) +
           " p50=" + std::to_string(stats.p50) + " p99=" + std::to_string(stats.p99) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, stats] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(stats.count) + ",\"sum\":" + std::to_string(stats.sum) +
           ",\"min\":" + std::to_string(stats.min) + ",\"max\":" + std::to_string(stats.max) +
           ",\"p50\":" + std::to_string(stats.p50) + ",\"p99\":" + std::to_string(stats.p99) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace calliope
