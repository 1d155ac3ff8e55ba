// Observability subsystem tests: MetricsRegistry instrument semantics,
// TraceRecorder output (parsed back with a real JSON parser, not substring
// checks), and the cluster-level contracts the chaos harness relies on —
// equal seeds snapshot bit-identical ClusterReports, and a traced run emits
// span events from at least the Coordinator, MSU and network subsystems.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

// ---- minimal JSON parser ----------------------------------------------------
// Validates the whole document and captures each traceEvents object's scalar
// fields (strings and numbers) as text; nested objects/arrays are validated
// recursively but not captured.

struct JsonEvent {
  JsonEvent() = default;

  std::map<std::string, std::string> fields;
};

class TraceJsonParser {
 public:
  explicit TraceJsonParser(std::string text) : s_(std::move(text)) {}

  bool ParseTrace(std::vector<JsonEvent>* events) {
    SkipWs();
    if (!Consume('{')) return Fail("expected top-level {");
    SkipWs();
    std::string key;
    if (!ParseString(&key) || key != "traceEvents") return Fail("expected traceEvents key");
    SkipWs();
    if (!Consume(':')) return Fail("expected :");
    SkipWs();
    if (!Consume('[')) return Fail("expected [");
    SkipWs();
    if (!Consume(']')) {
      while (true) {
        JsonEvent event;
        if (!ParseObject(&event)) return false;
        events->push_back(std::move(event));
        SkipWs();
        if (Consume(']')) break;
        if (!Consume(',')) return Fail("expected , or ] in traceEvents");
        SkipWs();
      }
    }
    SkipWs();
    if (!Consume('}')) return Fail("expected closing }");
    SkipWs();
    if (pos_ != s_.size()) return Fail("trailing data after document");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    std::string value;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return Fail("dangling escape");
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '/': c = '/'; break;
          default: return Fail("unsupported escape");
        }
      }
      value += c;
    }
    if (!Consume('"')) return Fail("unterminated string");
    if (out != nullptr) *out = std::move(value);
    return true;
  }

  bool ParseNumber(std::string* out) {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    if (out != nullptr) *out = s_.substr(start, pos_ - start);
    return true;
  }

  bool ParseValue(std::string* out) {
    const char c = Peek();
    if (c == '{') return ParseObject(nullptr);
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString(out);
    return ParseNumber(out);
  }

  bool ParseObject(JsonEvent* capture) {
    if (!Consume('{')) return Fail("expected {");
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected : after key " + key);
      SkipWs();
      const char first = Peek();
      std::string value;
      if (!ParseValue(&value)) return false;
      if (capture != nullptr && first != '{' && first != '[') {
        capture->fields[key] = std::move(value);
      }
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected , or } in object");
      SkipWs();
    }
  }

  bool ParseArray() {
    if (!Consume('[')) return Fail("expected [");
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      if (!ParseValue(nullptr)) return false;
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected , or ] in array");
      SkipWs();
    }
  }

  std::string s_;
  size_t pos_ = 0;
  std::string error_;
};

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsRegisterOnFirstUseWithStableAddresses) {
  MetricsRegistry registry;
  Counter& c = registry.counter("coord.admissions.accepted");
  c.Add();
  c.Add(2);
  EXPECT_EQ(&c, &registry.counter("coord.admissions.accepted"));
  EXPECT_EQ(c.value(), 3);

  Gauge& g = registry.gauge("coord.pending.depth");
  g.Set(7);
  g.Add(-2);
  EXPECT_EQ(&g, &registry.gauge("coord.pending.depth"));
  EXPECT_EQ(g.value(), 5);

  Histogram& h = registry.histogram("msu.msu0.send_lateness_us");
  h.Record(100);
  h.Record(900);
  EXPECT_EQ(&h, &registry.histogram("msu.msu0.send_lateness_us"));
  EXPECT_EQ(h.count(), 2);
}

TEST(MetricsRegistryTest, SnapshotCapturesAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.counter("a.count").Add(4);
  registry.gauge("b.level").Set(-3);
  registry.histogram("c.lat").Record(10);
  registry.histogram("c.lat").Record(1000);
  registry.SetGaugeCallback("d.pull", [] { return int64_t{42}; });

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.count("a.count"), 1u);
  EXPECT_EQ(snap.counters.at("a.count"), 4);
  ASSERT_EQ(snap.gauges.count("b.level"), 1u);
  EXPECT_EQ(snap.gauges.at("b.level"), -3);
  ASSERT_EQ(snap.gauges.count("d.pull"), 1u);
  EXPECT_EQ(snap.gauges.at("d.pull"), 42);
  ASSERT_EQ(snap.histograms.count("c.lat"), 1u);
  EXPECT_EQ(snap.histograms.at("c.lat").count, 2);
  EXPECT_EQ(snap.histograms.at("c.lat").sum, 1010);
  EXPECT_EQ(snap.histograms.at("c.lat").min, 10);
  EXPECT_EQ(snap.histograms.at("c.lat").max, 1000);

  // Equal registries snapshot equal; text/JSON renderings are non-empty and
  // reproducible from the same state.
  EXPECT_EQ(snap, registry.Snapshot());
  EXPECT_EQ(snap.ToJson(), registry.Snapshot().ToJson());
  EXPECT_FALSE(snap.ToText().empty());
}

TEST(MetricsRegistryTest, GaugeCallbackReRegistrationReplaces) {
  // An MSU restart re-attaches observability; the later callback must win
  // rather than double-register or keep a dangling earlier one.
  MetricsRegistry registry;
  registry.SetGaugeCallback("msu.msu0.streams.active", [] { return int64_t{1}; });
  registry.SetGaugeCallback("msu.msu0.streams.active", [] { return int64_t{9}; });
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.at("msu.msu0.streams.active"), 9);
  EXPECT_EQ(snap.gauges.size(), 1u);
}

TEST(MetricsRegistryDeathTest, NameHasOneKindOfPublisher) {
  // counter() on a pulled name would read a separate zero Counter while
  // Snapshot() reports the callback; either order of registration aborts.
  const auto pulled_then_pushed = [](bool gauge) {
    MetricsRegistry registry;
    if (gauge) {
      registry.SetGaugeCallback("coord.msus.up", [] { return int64_t{3}; });
      (void)registry.gauge("coord.msus.up");
    } else {
      registry.SetCounterCallback("coord.groups.formed", [] { return int64_t{3}; });
      (void)registry.counter("coord.groups.formed");
    }
  };
  const auto pushed_then_pulled = [](bool gauge) {
    MetricsRegistry registry;
    if (gauge) {
      registry.gauge("coord.msus.up").Set(1);
      registry.SetGaugeCallback("coord.msus.up", [] { return int64_t{3}; });
    } else {
      registry.counter("coord.groups.formed").Add();
      registry.SetCounterCallback("coord.groups.formed", [] { return int64_t{3}; });
    }
  };
  for (const bool gauge : {false, true}) {
    EXPECT_DEATH(pulled_then_pushed(gauge), "already has a publisher") << gauge;
    EXPECT_DEATH(pushed_then_pulled(gauge), "already has a publisher") << gauge;
  }
  // A counter and a gauge may share a name: they land in separate sections.
  MetricsRegistry registry;
  registry.counter("x").Add(2);
  registry.SetGaugeCallback("x", [] { return int64_t{5}; });
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("x"), 2);
  EXPECT_EQ(snap.gauges.at("x"), 5);
}

// ---- TraceRecorder ----------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecorderDropsEvents) {
  Simulator sim;
  TraceRecorder trace(sim);
  trace.Span("coordinator", "coord", "admit:play", SimTime());
  trace.Instant("net", "net", "conn-broken");
  EXPECT_EQ(trace.event_count(), 0u);

  std::vector<JsonEvent> events;
  TraceJsonParser parser(trace.ToJson());
  EXPECT_TRUE(parser.ParseTrace(&events)) << parser.error();
  EXPECT_TRUE(events.empty());
}

TEST(TraceRecorderTest, JsonParsesBackWithTracksAndPhases) {
  Simulator sim;
  TraceRecorder trace(sim);
  trace.set_enabled(true);
  sim.RunFor(SimTime::Millis(5));
  const SimTime start = sim.Now();
  sim.RunFor(SimTime::Millis(2));
  trace.Span("coordinator", "coord", "admit:play", start, "m0 group 1 \"quoted\"");
  trace.SpanAt("fault", "fault", "partition", SimTime::Seconds(1), SimTime::Seconds(3));
  trace.Instant("msu0", "msu", "first-packet", "stream 1");
  EXPECT_EQ(trace.event_count(), 3u);

  std::vector<JsonEvent> events;
  TraceJsonParser parser(trace.ToJson());
  ASSERT_TRUE(parser.ParseTrace(&events)) << parser.error();
  // 3 process_name metadata records (one per track) + 3 events.
  ASSERT_EQ(events.size(), 6u);

  int metadata = 0;
  int spans = 0;
  int instants = 0;
  for (const JsonEvent& event : events) {
    ASSERT_EQ(event.fields.count("ph"), 1u);
    const std::string& ph = event.fields.at("ph");
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.fields.at("name"), "process_name");
    } else if (ph == "X") {
      ++spans;
      EXPECT_EQ(event.fields.count("dur"), 1u);
      EXPECT_EQ(event.fields.count("ts"), 1u);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(event.fields.at("s"), "p");
    }
  }
  EXPECT_EQ(metadata, 3);
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(instants, 1);

  // Span timestamps render microseconds with a fixed nanosecond fraction.
  bool found_admit = false;
  for (const JsonEvent& event : events) {
    if (event.fields.count("name") != 0u && event.fields.at("name") == "admit:play") {
      found_admit = true;
      EXPECT_EQ(event.fields.at("ts"), "5000.000");
      EXPECT_EQ(event.fields.at("dur"), "2000.000");
      EXPECT_EQ(event.fields.at("cat"), "coord");
    }
  }
  EXPECT_TRUE(found_admit);
}

// ---- cluster-level contracts ------------------------------------------------

struct ClusterRunOutput {
  ClusterRunOutput() = default;

  std::string report_json;
  std::string report_text;
  std::string trace_json;
};

// One small deterministic workload: boot 2 MSUs, load a movie, play it for a
// few seconds, quit, quiesce, snapshot.
ClusterRunOutput RunSmallWorkload(uint64_t seed) {
  ClusterRunOutput out;
  InstallationConfig config;
  config.seed = seed;
  config.msu_count = 2;
  TestCluster cluster(config);
  cluster.installation().trace().set_enabled(true);
  Simulator& sim = cluster.sim();

  EXPECT_TRUE(cluster.Boot().ok());
  EXPECT_TRUE(cluster.installation()
                  .LoadMpegMovie("m0", SimTime::Seconds(8), 0, /*with_fast_scan=*/true)
                  .ok());
  auto added = cluster.AddConnectedClient("c");
  EXPECT_TRUE(added.ok()) << added.status().ToString();
  if (!added.ok()) {
    return out;
  }
  CalliopeClient* client = *added;
  auto play = PlayOn(sim, *client, "m0", "p0");
  EXPECT_TRUE(play.ok()) << play.status().ToString();
  if (play.ok()) {
    sim.RunFor(SimTime::Seconds(3));
    EXPECT_TRUE(QuitGroup(sim, *client, play->group).ok());
    EXPECT_TRUE(WaitForTermination(sim, *client, play->group, SimTime::Seconds(10)));
  }
  sim.RunFor(SimTime::Seconds(1));

  const ClusterReport report = cluster.installation().BuildClusterReport();
  out.report_json = report.ToJson();
  out.report_text = report.ToText();
  out.trace_json = cluster.installation().trace().ToJson();
  return out;
}

TEST(ObsClusterTest, EqualSeedsSnapshotIdenticalReports) {
  const ClusterRunOutput a = RunSmallWorkload(1996);
  const ClusterRunOutput b = RunSmallWorkload(1996);
  ASSERT_FALSE(a.report_json.empty());
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.report_text.empty());

  // A different seed still produces a structurally valid report (and one
  // whose trace parses); we do not require it to differ byte-for-byte.
  const ClusterRunOutput c = RunSmallWorkload(7);
  std::vector<JsonEvent> events;
  TraceJsonParser parser(c.trace_json);
  EXPECT_TRUE(parser.ParseTrace(&events)) << parser.error();
}

TEST(ObsClusterTest, TraceCoversCoordinatorMsuAndNetwork) {
  const ClusterRunOutput out = RunSmallWorkload(1996);
  ASSERT_FALSE(out.trace_json.empty());

  std::vector<JsonEvent> events;
  TraceJsonParser parser(out.trace_json);
  ASSERT_TRUE(parser.ParseTrace(&events)) << parser.error();

  std::set<std::string> span_categories;
  for (const JsonEvent& event : events) {
    if (event.fields.count("ph") != 0u && event.fields.at("ph") == "X") {
      span_categories.insert(event.fields.at("cat"));
    }
  }
  EXPECT_EQ(span_categories.count("coord"), 1u) << "no Coordinator spans";
  EXPECT_EQ(span_categories.count("msu"), 1u) << "no MSU spans";
  EXPECT_EQ(span_categories.count("net"), 1u) << "no network spans";
}

// One seeded run over the paths that trace the most: an HA pair, sharing
// with a page cache (a batch, a cache attach, a member split by pause and
// seek), a recording, a disk slowdown and an MSU crash. Returns the report
// JSON; when `traced`, also the categories of every recorded event.
std::string RunTracedScenario(bool traced, std::set<std::string>* categories) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  config.coordinator.sharing.enabled = true;
  config.msu.cache_memory = Bytes::MiB(32);
  TestCluster cluster(config);
  Installation& calliope = cluster.installation();
  calliope.trace().set_enabled(traced);
  Simulator& sim = cluster.sim();
  EXPECT_TRUE(cluster.Boot().ok());
  EXPECT_TRUE(calliope.LoadMpegMovie("m0", SimTime::Seconds(20), 0, false).ok());
  EXPECT_TRUE(calliope.LoadMpegMovie("m1", SimTime::Seconds(20), 1, false).ok());

  FaultPlan plan;
  FaultEvent slow;
  slow.what = FaultClass::kDiskSlow;
  slow.at = sim.Now() + SimTime::Seconds(1);
  slow.duration = SimTime::Seconds(3);
  slow.node = "msu0";
  slow.delay = SimTime::Millis(20);
  FaultEvent crash;
  crash.what = FaultClass::kMsuCrash;
  crash.at = sim.Now() + SimTime::Seconds(6);
  crash.duration = SimTime::Seconds(2);
  crash.node = "msu1";
  plan.events = {slow, crash};
  EXPECT_TRUE(calliope.ApplyFaultPlan(plan).ok());

  auto client = cluster.AddConnectedClient("c");
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (!client.ok()) {
    return "";
  }
  CalliopeClient& c = **client;
  auto a = PlayOn(sim, c, "m0", "v0");
  auto b = PlayOn(sim, c, "m0", "v1");
  auto solo = PlayOn(sim, c, "m1", "v2");
  auto record = RecordOn(sim, c, "clip", "rtp-video", "cam", SimTime::Seconds(10));
  EXPECT_TRUE(a.ok() && b.ok() && solo.ok() && record.ok());
  if (!a.ok() || !b.ok() || !solo.ok() || !record.ok()) {
    return "";
  }
  const PacketSequence feed = GenerateVbr(Graph2File(0), SimTime::Seconds(4));
  CoResult<Result<int64_t>> sent;
  Collect(c.SendRecording(record->group, 0, feed), &sent);
  sim.RunFor(SimTime::Seconds(2));
  EXPECT_TRUE(RunUntil(sim, [&] { return calliope.coordinator().standby_in_sync(); },
                       SimTime::Seconds(5)));
  EXPECT_TRUE(ExpectStandbyMirrorsPrimary(calliope));
  auto trailer = PlayOn(sim, c, "m0", "v3");
  EXPECT_TRUE(trailer.ok()) << trailer.status().ToString();
  EXPECT_TRUE(VcrOp(sim, c, a->group, VcrCommand::Op::kPause).ok());
  EXPECT_TRUE(VcrOp(sim, c, a->group, VcrCommand::Op::kSeek, SimTime::Seconds(5)).ok());
  EXPECT_TRUE(VcrOp(sim, c, a->group, VcrCommand::Op::kPlay).ok());
  sim.RunFor(SimTime::Seconds(8));

  const std::string report = calliope.BuildClusterReport().ToJson();
  std::vector<JsonEvent> events;
  TraceJsonParser parser(calliope.trace().ToJson());
  EXPECT_TRUE(parser.ParseTrace(&events)) << parser.error();
  for (const JsonEvent& event : events) {
    if (event.fields.count("cat") != 0u) {
      categories->insert(event.fields.at("cat"));
    }
  }
  return report;
}

// Instruments are observer-only: recording a trace must not move the
// simulation, so equal-seed reports with tracing on and off are
// byte-identical.
TEST(ObsClusterTest, TracingLeavesReportUnchanged) {
  std::set<std::string> untraced_categories;
  const std::string untraced = RunTracedScenario(false, &untraced_categories);
  std::set<std::string> categories;
  const std::string traced = RunTracedScenario(true, &categories);
  ASSERT_FALSE(untraced.empty());
  EXPECT_EQ(traced, untraced);
  EXPECT_TRUE(untraced_categories.empty());
  for (const char* category : {"coord", "msu", "net", "fault"}) {
    EXPECT_EQ(categories.count(category), 1u) << "no " << category << " events";
  }
}

// Every instrument name an installation publishes at construction.
std::set<std::string> PublishedNames(const InstallationConfig& config) {
  Installation calliope(config);
  const MetricsSnapshot snapshot = calliope.metrics().Snapshot();
  std::set<std::string> names;
  for (const auto& [name, value] : snapshot.counters) {
    names.insert(name);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    names.insert(name);
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    names.insert(name);
  }
  return names;
}

bool PublishesFamily(const std::set<std::string>& names, const std::string& prefix) {
  const auto it = names.lower_bound(prefix);
  return it != names.end() && it->starts_with(prefix);
}

// A feature's metric family is registered only when the feature is on, so a
// default installation's report carries no zero rows for features it never
// ran (and its digest does not move when a family gains a metric).
TEST(ObsClusterTest, FeatureFamiliesPublishOnlyWhenOn) {
  struct Feature {
    const char* name;
    std::function<void(InstallationConfig&)> enable;
    std::vector<std::string> families;
  };
  const std::vector<Feature> features = {
      {"sharing", [](InstallationConfig& c) { c.coordinator.sharing.enabled = true; },
       {"coord.groups."}},
      {"ha", [](InstallationConfig& c) { c.standby_coordinator = true; },
       {"coord.ha.", "coord.repl."}},
      {"rebalance", [](InstallationConfig& c) { c.coordinator.rebalance.enabled = true; },
       {"coord.rebalance."}},
      {"traffic", [](InstallationConfig& c) { c.coordinator.traffic.enabled = true; },
       {"coord.admission.", "coord.shed."}},
  };
  const std::set<std::string> defaults = PublishedNames(InstallationConfig());
  for (const Feature& feature : features) {
    for (const std::string& family : feature.families) {
      EXPECT_FALSE(PublishesFamily(defaults, family)) << family << " published by default";
    }
  }
  for (const Feature& on : features) {
    InstallationConfig config;
    on.enable(config);
    const std::set<std::string> names = PublishedNames(config);
    for (const Feature& feature : features) {
      for (const std::string& family : feature.families) {
        EXPECT_EQ(PublishesFamily(names, family), &feature == &on)
            << family << " with only " << on.name << " on";
      }
    }
  }
}

TEST(ObsClusterTest, ReportCountsMatchClientAndStreamStats) {
  InstallationConfig config;
  config.msu_count = 1;
  TestCluster cluster(config);
  Simulator& sim = cluster.sim();
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation()
                  .LoadMpegMovie("m0", SimTime::Seconds(6), 0, /*with_fast_scan=*/false)
                  .ok());
  auto added = cluster.AddConnectedClient("c");
  ASSERT_TRUE(added.ok());
  CalliopeClient* client = *added;
  auto play = PlayOn(sim, *client, "m0", "p0");
  ASSERT_TRUE(play.ok());
  sim.RunFor(SimTime::Seconds(2));
  ASSERT_TRUE(QuitGroup(sim, *client, play->group).ok());
  ASSERT_TRUE(WaitForTermination(sim, *client, play->group, SimTime::Seconds(10)));
  sim.RunFor(SimTime::Seconds(1));

  const ClusterReport report = cluster.installation().BuildClusterReport();
  ASSERT_EQ(report.streams.size(), 1u);
  const StreamQosReport& stream = report.streams.front();
  EXPECT_EQ(stream.msu, "msu0");
  EXPECT_EQ(stream.file, "m0.mpg");
  EXPECT_FALSE(stream.recording);
  EXPECT_TRUE(stream.finished);
  EXPECT_GT(stream.packets_sent, 0);
  EXPECT_GE(stream.p99_lateness_us, stream.p50_lateness_us);
  EXPECT_GE(stream.max_lateness_us, 0);

  ASSERT_EQ(report.ports.size(), 1u);
  const PortQosReport& port = report.ports.front();
  EXPECT_EQ(port.client, "c");
  EXPECT_EQ(port.port, "p0");
  EXPECT_EQ(port.out_of_order, 0);
  const ClientDisplayPort* p = client->FindPort("p0");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(port.packets_received, p->packets_received());
  EXPECT_EQ(port.max_gap_us, p->max_arrival_gap().micros());
  EXPECT_GT(port.packets_received, 0);
  // Media packets are paced ~evenly, so the largest inter-arrival gap is
  // positive once more than one packet arrived.
  EXPECT_GT(port.max_gap_us, 0);

  // The registry view agrees with the per-stream rows.
  const MetricsSnapshot& snap = report.metrics;
  ASSERT_EQ(snap.counters.count("msu.msu0.packets_sent"), 1u);
  EXPECT_EQ(snap.counters.at("msu.msu0.packets_sent"), stream.packets_sent);
  ASSERT_EQ(snap.counters.count("coord.admissions.accepted"), 1u);
  EXPECT_EQ(snap.counters.at("coord.admissions.accepted"), 1);
}

}  // namespace
}  // namespace calliope
