// Continuous-telemetry suite (DESIGN.md §5.7): MetricsSampler semantics,
// declarative SLO monitors, and the acceptance scenario — a seeded disk
// slowdown must be visible as a lateness-SLO breach (and, under eight
// streams, a delivery-gap breach) whose first/last breach timestamps are
// bracketed by the fault window, while the identical seed without the fault
// reports zero breach windows; both runs byte-identical across repeats, and a
// no-sampler run's ClusterReport byte-identical to an installation that never
// heard of the feature.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/obs/report_diff.h"
#include "src/obs/sampler.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

// Pumps the simulator until the sampler has closed `target` windows. The
// tick self-reschedules, so the event queue is never empty before the
// max_windows cap.
void RunWindows(Simulator& sim, MetricsSampler& sampler, int64_t target) {
  while (sampler.windows() < target && sim.Step()) {
  }
  ASSERT_EQ(sampler.windows(), target);
}

TEST(MetricsSamplerTest, CountersDeltaGaugesSampleHistogramsRow) {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace(sim);
  SamplerConfig config;
  config.period = SimTime::Millis(100);
  MetricsSampler sampler(sim, metrics, trace, config, {});
  sampler.Start();

  Counter& requests = metrics.counter("test.requests");
  Gauge& depth = metrics.gauge("test.depth");
  Histogram& latency = metrics.histogram("test.latency");

  requests.Add(5);
  depth.Set(3);
  latency.Record(10);
  latency.Record(20);
  RunWindows(sim, sampler, 1);
  requests.Add(2);
  depth.Set(7);
  RunWindows(sim, sampler, 2);

  // Counters as per-window deltas.
  const auto& deltas = sampler.counter_deltas().at("test.requests");
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0], 5);
  EXPECT_EQ(deltas[1], 2);
  // The sampler's own tick counter bumps before the snapshot: delta 1/window.
  const auto& ticks = sampler.counter_deltas().at("obs.sampler.ticks");
  EXPECT_EQ(ticks[0], 1);
  EXPECT_EQ(ticks[1], 1);
  // Gauges as point samples.
  const auto& depths = sampler.gauge_samples().at("test.depth");
  EXPECT_EQ(depths[0], 3);
  EXPECT_EQ(depths[1], 7);
  // Histograms as per-window count deltas with cumulative quantiles.
  const auto& rows = sampler.histogram_rows().at("test.latency");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].count_delta, 2);
  EXPECT_EQ(rows[1].count_delta, 0);
  EXPECT_EQ(rows[0].max, 20);
}

TEST(MetricsSamplerTest, MidRunInstrumentsAreZeroBackfilled) {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace(sim);
  SamplerConfig config;
  config.period = SimTime::Millis(100);
  MetricsSampler sampler(sim, metrics, trace, config, {});
  sampler.Start();

  RunWindows(sim, sampler, 3);
  metrics.counter("test.latecomer").Add(4);
  RunWindows(sim, sampler, 4);

  const auto& series = sampler.counter_deltas().at("test.latecomer");
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0], 0);
  EXPECT_EQ(series[1], 0);
  EXPECT_EQ(series[2], 0);
  EXPECT_EQ(series[3], 4);
}

TEST(MetricsSamplerTest, MaxWindowsStopsRescheduling) {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace(sim);
  SamplerConfig config;
  config.period = SimTime::Millis(100);
  config.max_windows = 3;
  MetricsSampler sampler(sim, metrics, trace, config, {});
  sampler.Start();
  sim.Run();  // drains: the cap keeps the queue from self-sustaining forever
  EXPECT_EQ(sampler.windows(), 3);
}

TEST(MetricsSamplerTest, MinBreachWindowsGatesEpisodes) {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace(sim);
  SamplerConfig config;
  config.period = SimTime::Millis(100);
  SloSpec spec;
  spec.name = "depth";
  spec.signal = SloSpec::Signal::kGaugeValue;
  spec.metric = "test.depth";
  spec.threshold = 10;
  spec.min_breach_windows = 2;
  MetricsSampler sampler(sim, metrics, trace, config, {spec});
  sampler.Start();
  Gauge& depth = metrics.gauge("test.depth");

  // Window values: 5, 15 (blip, ignored), 5, 20, 30 (episode), 5.
  const int64_t values[] = {5, 15, 5, 20, 30, 5};
  int64_t window = 0;
  for (int64_t value : values) {
    depth.Set(value);
    RunWindows(sim, sampler, ++window);
  }

  const TimelineReport timeline = sampler.BuildTimelineReport();
  ASSERT_EQ(timeline.slos.size(), 1u);
  const SloBreachReport& slo = timeline.slos[0];
  EXPECT_EQ(slo.name, "depth");
  EXPECT_EQ(slo.windows_evaluated, 6);
  EXPECT_EQ(slo.breach_episodes, 1);   // the single-window blip did not count
  EXPECT_EQ(slo.breach_windows, 2);    // windows 3 and 4 (values 20, 30)
  // Timestamps are window-end times: window 3 ends at 400 ms, 4 at 500 ms.
  EXPECT_EQ(slo.first_breach_us, SimTime::Millis(400).micros());
  EXPECT_EQ(slo.last_breach_us, SimTime::Millis(500).micros());
  EXPECT_EQ(slo.worst_window, 4);
  EXPECT_EQ(slo.worst_value, 30);
  EXPECT_EQ(slo.breached_us, 2 * SimTime::Millis(100).micros());
  // The breach also lands in the registry for end-of-run snapshots.
  EXPECT_EQ(metrics.Snapshot().counters.at("slo.depth.breach_windows"), 2);
}

TEST(MetricsSamplerTest, BreachEmitsTraceInstants) {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace(sim);
  trace.set_enabled(true);
  SamplerConfig config;
  config.period = SimTime::Millis(100);
  SloSpec spec;
  spec.name = "depth";
  spec.signal = SloSpec::Signal::kGaugeValue;
  spec.metric = "test.depth";
  spec.threshold = 10;
  MetricsSampler sampler(sim, metrics, trace, config, {spec});
  sampler.Start();
  Gauge& depth = metrics.gauge("test.depth");

  const int64_t values[] = {5, 15, 5};
  int64_t window = 0;
  for (int64_t value : values) {
    depth.Set(value);
    RunWindows(sim, sampler, ++window);
  }
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("slo-breach:depth"), std::string::npos);
  EXPECT_NE(json.find("slo-clear:depth"), std::string::npos);
}

TEST(MetricsSamplerTest, WriteCsvOneRowPerWindow) {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace(sim);
  SamplerConfig config;
  config.period = SimTime::Millis(100);
  SloSpec spec;
  spec.name = "depth";
  spec.signal = SloSpec::Signal::kGaugeValue;
  spec.metric = "test.depth";
  spec.threshold = 10;
  MetricsSampler sampler(sim, metrics, trace, config, {spec});
  sampler.Start();
  RunWindows(sim, sampler, 3);

  const std::string path = ::testing::TempDir() + "/timeline.csv";
  ASSERT_TRUE(sampler.WriteCsv(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[256];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  EXPECT_EQ(contents.find("window,end_us,packets"), 0u);
  EXPECT_NE(contents.find(",slo.depth"), std::string::npos);
  int lines = 0;
  for (char c : contents) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 4);  // header + one row per window
}

TEST(SuffixedTracePathTest, InsertsOrdinalBeforeExtension) {
  EXPECT_EQ(SuffixedTracePath("out.json", 1), "out.json");
  EXPECT_EQ(SuffixedTracePath("out.json", 2), "out.2.json");
  EXPECT_EQ(SuffixedTracePath("/tmp/t/out.json", 3), "/tmp/t/out.3.json");
  EXPECT_EQ(SuffixedTracePath("noext", 2), "noext.2");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(SuffixedTracePath("dir.v1/out", 2), "dir.v1/out.2");
}

// ---- acceptance scenario ----------------------------------------------------

struct ScenarioResult {
  ScenarioResult() = default;
  ClusterReport report;
  std::string report_json;
  SimTime fault_start;
  SimTime fault_end;
};

// The scenario's shape. The defaults are the three-stream lateness case,
// where no port's delivery gap ever exceeds 500 ms even with the disks
// slowed; the delivery-gap SLO needs the eight-stream shape below.
struct DiskSlowShape {
  int streams = 3;
  SimTime window = SimTime::Millis(250);
  SimTime play_span = SimTime::Seconds(6);
  bool delivery_gap_slo = false;
};

// One seeded playback run: `shape.streams` streams off one MSU with the
// sampler at `shape.window` and a lateness-p99 SLO (plus a 500 ms
// delivery-gap SLO if asked). With `with_fault`, a disk-slowdown window
// opens a third of the way in and outlives the playbacks, so every breach
// window — including the catch-up tail — falls inside it.
ScenarioResult RunDiskSlowScenario(bool with_sampler, bool with_fault,
                                   const DiskSlowShape& shape = {}) {
  ScenarioResult result;
  InstallationConfig config;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {2};
  if (with_sampler) {
    config.sampler.period = shape.window;
    SloSpec slo;
    slo.name = "lateness-p99";
    slo.signal = SloSpec::Signal::kLatenessP99;
    slo.threshold = SimTime::Millis(25).micros();
    // No debouncing here: a slowed disk delivers late pages as discrete
    // catch-up bursts, so breaching windows alternate with starved-empty
    // ones and a consecutive-window filter would mask the fault. The
    // min_breach_windows semantics get their own coverage in
    // MinBreachWindowsGatesEpisodes above.
    slo.min_breach_windows = 1;
    config.slos.push_back(slo);
    if (shape.delivery_gap_slo) {
      SloSpec gap;
      gap.name = "delivery-gap";
      gap.signal = SloSpec::Signal::kMaxGap;
      gap.threshold = SimTime::Millis(500).micros();
      config.slos.push_back(gap);
    }
  }
  Installation calliope(config);
  EXPECT_TRUE(calliope.Boot().ok());

  const SimTime play_span = shape.play_span;
  const int streams = shape.streams;
  for (int i = 0; i < streams; ++i) {
    EXPECT_TRUE(calliope
                    .LoadMpegMovie("t" + std::to_string(i), play_span + SimTime::Seconds(2), 0,
                                   false, i % 2)
                    .ok());
  }
  CalliopeClient& client = calliope.AddClient("viewer");
  EXPECT_TRUE(ConnectClient(calliope.sim(), client).ok());
  for (int i = 0; i < streams; ++i) {
    auto play = PlayOn(calliope.sim(), client, "t" + std::to_string(i),
                       "tv" + std::to_string(i));
    EXPECT_TRUE(play.ok()) << play.status().ToString();
  }

  result.fault_start = calliope.sim().Now() + play_span / 3;
  result.fault_end = result.fault_start + play_span * 2;
  if (with_fault) {
    FaultEvent fault;
    fault.what = FaultClass::kDiskSlow;
    fault.at = result.fault_start;
    fault.duration = play_span * 2;
    fault.node = "msu0";
    fault.disk = -1;
    // Per-read delay above the per-page playback span (~1.37 s at MPEG-1
    // rates with 256 KB pages): anything below that is fully absorbed by
    // the 2-page prefetch window and no deadline ever slips.
    fault.delay = SimTime::Millis(1600);
    FaultPlan plan;
    plan.events.push_back(fault);
    EXPECT_TRUE(calliope.ApplyFaultPlan(std::move(plan)).ok());
  }
  calliope.sim().RunFor(play_span);

  result.report = calliope.BuildClusterReport();
  result.report_json = result.report.ToJson();
  return result;
}

// The SLO named `name` in a run's timeline, or nullptr. Timelines list SLOs
// by name, not in declaration order.
const SloBreachReport* FindSlo(const ScenarioResult& run, const std::string& name) {
  for (const SloBreachReport& slo : run.report.timeline->slos) {
    if (slo.name == name) {
      return &slo;
    }
  }
  return nullptr;
}

// Runs the scenario faulted and clean, twice each, and checks every SLO in
// `slo_names`: the fault surfaces as breach windows bracketed by the fault
// window, the identical seed without the fault reports none, and both
// scenarios replay byte-identically.
void ExpectBreachesBracketedByFault(const DiskSlowShape& shape,
                                    const std::vector<std::string>& slo_names) {
  const ScenarioResult faulted =
      RunDiskSlowScenario(/*with_sampler=*/true, /*with_fault=*/true, shape);
  ASSERT_TRUE(faulted.report.timeline.has_value());
  ASSERT_EQ(faulted.report.timeline->slos.size(), slo_names.size());
  const ScenarioResult clean =
      RunDiskSlowScenario(/*with_sampler=*/true, /*with_fault=*/false, shape);
  ASSERT_TRUE(clean.report.timeline.has_value());
  ASSERT_EQ(clean.report.timeline->slos.size(), slo_names.size());

  for (const std::string& name : slo_names) {
    SCOPED_TRACE(name);
    const SloBreachReport* slo = FindSlo(faulted, name);
    ASSERT_NE(slo, nullptr);
    EXPECT_GT(slo->breach_windows, 0) << "disk slowdown never surfaced as an SLO breach";
    EXPECT_GE(slo->breach_episodes, 1);
    EXPECT_GE(slo->first_breach_us, faulted.fault_start.micros())
        << "breach reported before the fault window opened";
    EXPECT_LE(slo->last_breach_us, faulted.fault_end.micros())
        << "breach reported after the fault window closed";
    EXPECT_GT(slo->worst_value, slo->threshold);

    // Identical seed without the fault: zero breach windows.
    const SloBreachReport* quiet = FindSlo(clean, name);
    ASSERT_NE(quiet, nullptr);
    EXPECT_EQ(quiet->breach_windows, 0);
    EXPECT_EQ(quiet->breach_episodes, 0);
    EXPECT_EQ(quiet->first_breach_us, 0);
  }

  // Determinism: both scenarios replay byte-identically.
  const ScenarioResult faulted2 =
      RunDiskSlowScenario(/*with_sampler=*/true, /*with_fault=*/true, shape);
  EXPECT_EQ(faulted.report_json, faulted2.report_json);
  const ScenarioResult clean2 =
      RunDiskSlowScenario(/*with_sampler=*/true, /*with_fault=*/false, shape);
  EXPECT_EQ(clean.report_json, clean2.report_json);
}

TEST(TelemetryScenarioTest, DiskSlowdownBreachIsBracketedByFaultWindow) {
  ExpectBreachesBracketedByFault(DiskSlowShape{}, {"lateness-p99"});
}

// Eight streams, 500 ms windows and an 8 s play span: enough load on the
// slowed disks that ports go over 500 ms without a packet (worst ~3.5 s),
// so the delivery-gap SLO breaches next to lateness-p99.
TEST(TelemetryScenarioTest, DiskSlowdownGapBreachIsBracketedByFaultWindow) {
  DiskSlowShape shape;
  shape.streams = 8;
  shape.window = SimTime::Millis(500);
  shape.play_span = SimTime::Seconds(8);
  shape.delivery_gap_slo = true;
  ExpectBreachesBracketedByFault(shape, {"lateness-p99", "delivery-gap"});
}

TEST(TelemetryScenarioTest, NoSamplerMeansNoTimelineAndNoPerturbation) {
  const ScenarioResult off = RunDiskSlowScenario(/*with_sampler=*/false, /*with_fault=*/false);
  // Zero-overhead-off: no timeline section at all, and the JSON is exactly
  // what a pre-telemetry installation produced (no stray keys).
  EXPECT_FALSE(off.report.timeline.has_value());
  EXPECT_EQ(off.report_json.find("\"timeline\""), std::string::npos);
  const ScenarioResult off2 = RunDiskSlowScenario(/*with_sampler=*/false, /*with_fault=*/false);
  EXPECT_EQ(off.report_json, off2.report_json);

  // Observer-only: turning the sampler on changes nothing outside its own
  // instruments and the timeline section.
  const ScenarioResult on = RunDiskSlowScenario(/*with_sampler=*/true, /*with_fault=*/false);
  ReportDiffOptions options;
  options.compare_timeline = false;
  options.ignore_metric_prefixes = {"obs.sampler.", "slo."};
  const ReportDiff diff = DiffClusterReports(off.report, on.report, options);
  EXPECT_TRUE(diff.empty()) << "sampler perturbed the run:\n" << diff.ToText();
}

}  // namespace
}  // namespace calliope
