// One repetition of one benchmark workload against a simulated Calliope
// installation.
//
//   perfbench --workload <graph1_packet|scale_flow_200|zipf_churn> --seed <n> [--trace]
//
// The program drives the system only through its public APIs (Installation,
// CalliopeClient, BuildWorkloadSchedule, Simulator::RunFor / events_fired,
// the metrics registry, BuildClusterReport and the hw accessors). It prints a
// human-readable account of the run and, as its last line, one JSON object
// with the end-to-end metrics, the per-layer metrics, the failure accounting,
// the output-check verdicts and a digest of the ClusterReport. perfbench/run.py
// repeats it, keeps the best host-clock figures and prints the benchmark's
// result line.
//
// Host-clock numbers ("host") depend on the machine; simulated numbers
// ("sim") are a pure function of (workload, seed, program) and repeat exactly.
// --trace adds per-slice spans and per-slice sampling; it never changes what
// the simulation does, so traced and untraced runs give identical sim metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/load/workload.h"
#include "src/media/sources.h"

namespace calliope {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- host-clock spans --------------------------------------------------------
//
// Spans are recorded from this file around each call into a layer. Phase spans
// (setup, boot, ramp, ...) are always kept, because the end-to-end host metrics
// come from them; the per-slice spans inside ramp and steady are kept only in
// traced runs. A span's self time is its duration minus its children's.

struct Span {
  std::string name;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  int64_t events = 0;  // simulator events fired inside the span
};

class SpanLog {
 public:
  void set_sim(const Simulator* sim) { sim_ = sim; }

  void Open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.events = events();
    span.start = Clock::now();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(span));
  }

  void Close() {
    Span& span = spans_[static_cast<size_t>(open_.back())];
    span.end = Clock::now();
    span.events = events() - span.events;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Total duration of every span called `name`.
  double Seconds(const std::string& name) const {
    double total = 0;
    for (const Span& span : spans_) {
      if (span.name == name) {
        total += SecondsBetween(span.start, span.end);
      }
    }
    return total;
  }

  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += SecondsBetween(spans_[i].start, spans_[i].end);
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -=
            SecondsBetween(spans_[i].start, spans_[i].end);
      }
    }
    return self;
  }

 private:
  int64_t events() const { return sim_ == nullptr ? 0 : sim_->events_fired(); }

  const Simulator* sim_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for its lifetime; a disabled scope records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, bool enabled = true)
      : log_(enabled ? &log : nullptr) {
    if (log_ != nullptr) {
      log_->Open(std::move(name));
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// ---- sessions ------------------------------------------------------------------

enum class Outcome {
  kPending,       // still waiting when the run ended (counts as never ready)
  kServed,        // WaitForGroupReady returned OK
  kPortFailed,    // RegisterPort failed
  kStartFailed,   // Play / Record returned an error status
  kQueuedFailed,  // queued by the Coordinator, then failed or timed out
  kNeverReady,    // admitted without queueing, but never became ready
};

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kServed:
      return "served";
    case Outcome::kPortFailed:
      return "port_registration";
    case Outcome::kStartFailed:
      return "play_record_error";
    case Outcome::kQueuedFailed:
      return "queued_then_failed";
    case Outcome::kNeverReady:
      return "admitted_never_ready";
  }
  return "?";
}

constexpr Outcome kFailureReasons[] = {Outcome::kPortFailed, Outcome::kStartFailed,
                                       Outcome::kQueuedFailed, Outcome::kNeverReady,
                                       Outcome::kPending};

struct Session {
  SessionPlan plan;  // kind, start, hold and VCR seed (churn workload)
  std::string title;
  CalliopeClient* client = nullptr;
  std::string port;
  GroupId group = 0;
  bool queued = false;
  int vcr_ops = 0;    // VCR commands issued (churn surfers)
  SimTime requested;  // Play()/Record() issued
  SimTime ready;      // WaitForGroupReady() returned OK
  SimTime ended;      // the served session quit (churn) or the run ended
  Outcome outcome = Outcome::kPending;
  bool retired = false;  // the session's coroutine has finished
};

// ---- workload shapes ---------------------------------------------------------

struct Shape {
  std::string name;
  InstallationConfig config;
  // Fixed-stream workloads: `streams` sessions that play until the end.
  int streams = 0;
  int streams_per_client = 16;
  int admit_batch = 0;                  // 0 = one burst; else sessions per batch
  SimTime admit_interval;               // between batches
  SimTime steady;                       // steady window after admission
  // Churn workload: open-loop schedule from BuildWorkloadSchedule.
  bool churn = false;
  WorkloadConfig load;
  SimTime warmup;                       // ramp part of the arrival horizon
  int replicated_titles = 0;            // Zipf head copied onto every MSU
  SimTime ready_timeout = SimTime::Seconds(60);
};

Shape Graph1Packet(uint64_t seed) {
  Shape shape;
  shape.name = "graph1_packet";
  shape.config.seed = seed;
  shape.config.msu_count = 8;
  // The Graph-1 working point: two disks on one SCSI chain per MSU and an
  // admission budget of 11 MPEG-1 streams per disk, 22 per MSU.
  shape.config.msu_machine.disks_per_hba = {2};
  shape.config.coordinator.disk_budget = DataRate::MegabytesPerSec(2.2);
  shape.streams = 8 * 22;
  shape.streams_per_client = 22;
  shape.steady = SimTime::Seconds(40);
  return shape;
}

Shape ScaleFlow200(uint64_t seed) {
  Shape shape;
  shape.name = "scale_flow_200";
  shape.config.seed = seed;
  shape.config.msu_count = 200;
  // Four disks and a 2.7 MB/s budget per MSU admit 52 streams each.
  shape.config.msu_machine.disks_per_hba = {2, 2};
  shape.config.coordinator.disk_budget = DataRate::MegabytesPerSec(2.7);
  shape.config.msu.fidelity.default_mode = Fidelity::kFlow;
  shape.config.msu.fidelity.quiet_window = SimTime::Millis(300);
  shape.streams = 200 * 52;
  shape.streams_per_client = 16;
  // Paced below the Coordinator's capacity (~2.7 ms of its CPU per stream).
  shape.admit_batch = 100;
  shape.admit_interval = SimTime::Millis(500);
  shape.steady = SimTime::Seconds(10);
  return shape;
}

Shape ZipfChurn(uint64_t seed) {
  Shape shape;
  shape.name = "zipf_churn";
  shape.config.seed = seed;
  shape.config.msu_count = 8;
  shape.config.msu.fidelity.default_mode = Fidelity::kFlow;
  shape.config.msu.fidelity.quiet_window = SimTime::Millis(300);
  shape.config.coordinator.sharing.enabled = true;
  shape.config.msu.cache_memory = Bytes::MiB(64);
  shape.churn = true;
  WorkloadConfig& load = shape.load;
  load.seed = seed;
  load.titles = 24;
  load.archive_titles = 12;
  load.zipf_skew = 1.0;
  // Titles outlast every hold, so sessions quit before a title ends.
  load.title_length = SimTime::Seconds(300);
  load.archive_length = SimTime::Seconds(300);
  load.client_hosts = 16;
  load.phases = {WorkloadPhase(SimTime::Seconds(720), 6.0)};
  load.viewer_hold_mean = SimTime::Seconds(20);
  load.surfer_hold_mean = SimTime::Seconds(8);
  load.recording_length = SimTime::Seconds(5);
  shape.warmup = SimTime::Seconds(60);
  shape.replicated_titles = 3;
  shape.ready_timeout = SimTime::Seconds(30);
  return shape;
}

// ---- the run -------------------------------------------------------------------

// Nearest-rank order statistics over admission latencies, where a session
// that was refused or never became ready counts as beyond any limit.
struct LatencySummary {
  int64_t samples = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_pct = 0;       // the tail's percentile
  int64_t beyond_tail = 0;   // samples beyond it
  bool tail_beyond_limit = false;
};

LatencySummary SummarizeAdmission(std::vector<double> ms, double limit_ms) {
  LatencySummary out;
  out.samples = static_cast<int64_t>(ms.size());
  if (ms.empty()) {
    return out;
  }
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  const size_t mid = (n - 1) / 2;
  out.p50_ms = std::isinf(ms[mid]) ? limit_ms : ms[mid];
  // The highest percentile with at least 10 samples beyond it.
  const size_t tail = n > 10 ? n - 11 : n - 1;
  out.tail_pct = 100.0 * static_cast<double>(tail + 1) / static_cast<double>(n);
  out.beyond_tail = static_cast<int64_t>(n - 1 - tail);
  out.tail_beyond_limit = std::isinf(ms[tail]);
  out.tail_ms = out.tail_beyond_limit ? limit_ms : ms[tail];
  return out;
}

// Lateness quantile interpolated linearly inside its histogram bin, so the
// 1 ms bins do not quantize the figure.
double InterpolatedQuantileUs(const LatenessHistogram& histogram, double q) {
  const SimTime edge = histogram.Quantile(q);
  if (edge <= SimTime() || edge == SimTime::Max()) {
    return static_cast<double>(std::max<int64_t>(edge.micros(), 0));
  }
  // FractionWithin(t) counts the whole bin that starts at t, so the CDF at
  // the bin's upper edge is FractionWithin(lower) and at its lower edge
  // FractionWithin(lower - width).
  const SimTime width = SimTime::Millis(1);
  const SimTime lower = edge - width;
  const double f_lo = histogram.FractionWithin(lower - width);
  const double f_hi = histogram.FractionWithin(lower);
  const double frac = f_hi > f_lo ? (q - f_lo) / (f_hi - f_lo) : 1.0;
  return static_cast<double>(lower.micros()) +
         std::clamp(frac, 0.0, 1.0) * static_cast<double>(width.micros());
}

int64_t SumCounters(const MetricsSnapshot& snapshot, const std::string& prefix,
                    const std::string& suffix) {
  int64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

int64_t CounterValue(const MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// An ordered list of (name, value) pairs rendered as a JSON object.
class JsonFields {
 public:
  void Add(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : -1.0);
    fields_.emplace_back(name, buf);
  }
  void AddInt(const std::string& name, int64_t value) {
    fields_.emplace_back(name, std::to_string(value));
  }
  void AddString(const std::string& name, const std::string& value) {
    fields_.emplace_back(name, "\"" + value + "\"");
  }
  void AddRaw(const std::string& name, std::string json) {
    fields_.emplace_back(name, std::move(json));
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }
  const std::vector<std::pair<std::string, std::string>>& fields() const { return fields_; }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Client-side delivery totals over every display port.
struct PortTotals {
  int64_t packets_received = 0;
  int64_t glitches = 0;
  int64_t out_of_order = 0;
  int64_t max_gap_us = 0;
};

// Session outcomes, tallied after the run.
struct SessionTally {
  std::map<Outcome, int64_t> outcomes;
  std::vector<double> admit_ms;  // infinity for a session never served
  int64_t attempted = 0;
  int64_t served = 0;
  int64_t viewers = 0;       // served sessions that receive media
  int64_t silent_ports = 0;  // viewers that should have packets but have none
  int64_t vcr_ops = 0;

  int64_t failed() const { return attempted - served; }
};

class Bench {
 public:
  Bench(Shape shape, bool trace) : shape_(std::move(shape)), trace_(trace) {}

  // Runs the workload; returns the process exit code.
  int Run();

 private:
  void Setup();
  // Loads the catalog; returns how many client hosts the workload needs.
  int LoadTitles();
  void ConnectClients(int hosts);
  void PlanSessions();
  void Ramp();
  void Steady();
  void Drain();
  Task RunSession(Session* session);
  Task ArrivalLoop();
  Task QuitSession(Session* session);
  // One RunFor slice of the ramp or steady window; traced runs record it as
  // a span and sample the duty-cycle slots after it.
  void Slice(const char* phase, SimTime span);
  bool AllRetired() const;

  // The timed ramp and steady slices, with the host cost growth over them.
  struct SliceCosts {
    std::vector<const Span*> slices;
    int64_t run_events = 0;  // events fired in the ramp and steady windows
    double growth = 0;
  };
  SliceCosts CostPerSlice() const;
  PortTotals TotalPorts() const;
  SessionTally TallySessions() const;
  std::vector<std::string> CheckOutputs(const PortTotals& ports, const SessionTally& tally);
  JsonFields EndToEnd(const SessionTally& tally, const LatencySummary& admit);
  JsonFields PerLayer(const MetricsSnapshot& snapshot, const PortTotals& ports,
                      const SessionTally& tally);
  void PrintSpans() const;
  // Prints the run's account and result line; returns false if an output
  // check failed.
  bool Finish(const ClusterReport& report, uint64_t digest);

  int disks_per_msu() const {
    int disks = 0;
    for (const int n : shape_.config.msu_machine.disks_per_hba) {
      disks += n;
    }
    return disks;
  }
  // Fixed-stream workloads: titles on each disk (one per stream slot for a
  // single burst, else one shared by the disk's streams).
  int titles_per_disk() const {
    return shape_.admit_batch == 0 ? shape_.streams / shape_.config.msu_count / disks_per_msu()
                                   : 1;
  }
  static std::string FixedTitle(int msu, int disk, int title) {
    return "m" + std::to_string(msu) + "d" + std::to_string(disk) + "t" + std::to_string(title);
  }

  Shape shape_;
  bool trace_;
  SpanLog spans_;
  std::unique_ptr<Installation> calliope_;
  std::vector<CalliopeClient*> clients_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<SessionPlan> schedule_;
  PacketSequence recording_feed_;
  bool arrivals_done_ = false;
  Clock::time_point wall_start_;
  SimTime run_start_;             // sim time the first session was offered
  SimTime measured_end_;          // sim time the steady window closed
  Bytes delivered_;               // client media bytes received by measured_end_
  int64_t streams_running_ = 0;   // MSU streams live at measured_end_
  int64_t slots_max_ = 0;         // duty-cycle slots on any one disk (traced)
};

void Bench::Setup() {
  ScopedSpan setup(spans_, "setup");
  {
    ScopedSpan span(spans_, "calliope.construct");
    calliope_ = std::make_unique<Installation>(shape_.config);
  }
  spans_.set_sim(&calliope_->sim());
  {
    ScopedSpan span(spans_, "calliope.boot");
    const Status booted = calliope_->Boot();
    if (!booted.ok()) {
      std::fprintf(stderr, "boot failed: %s\n", booted.ToString().c_str());
      std::exit(1);
    }
  }
  int hosts = 0;
  {
    ScopedSpan span(spans_, "media.load");
    hosts = LoadTitles();
  }
  {
    ScopedSpan span(spans_, "client.connect");
    ConnectClients(hosts);
  }
  {
    ScopedSpan span(spans_, "load.schedule");
    PlanSessions();
  }
}

int Bench::LoadTitles() {
  Installation& calliope = *calliope_;
  const int msus = shape_.config.msu_count;
  auto load = [&](const std::string& name, SimTime length, int msu, bool fast_scan, int disk) {
    const Status loaded =
        calliope.LoadMpegMovie(name, length, static_cast<size_t>(msu), fast_scan, disk);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s failed: %s\n", name.c_str(), loaded.ToString().c_str());
      std::exit(1);
    }
  };
  if (!shape_.churn) {
    // Every title outlasts the whole run.
    const int batches = shape_.admit_batch == 0
                            ? 1
                            : (shape_.streams + shape_.admit_batch - 1) / shape_.admit_batch;
    const SimTime length = shape_.admit_interval * batches + shape_.steady + SimTime::Seconds(90);
    for (int m = 0; m < msus; ++m) {
      for (int d = 0; d < disks_per_msu(); ++d) {
        for (int t = 0; t < titles_per_disk(); ++t) {
          load(FixedTitle(m, d, t), length, m, false, d);
        }
      }
    }
    return (shape_.streams + shape_.streams_per_client - 1) / shape_.streams_per_client;
  }
  // Popular titles carry fast-scan variants; the archive is the long tail.
  const WorkloadConfig& workload = shape_.load;
  for (int i = 0; i < workload.titles; ++i) {
    load("wl-t" + std::to_string(i), workload.title_length, i % msus, true, -1);
  }
  for (int i = 0; i < workload.archive_titles; ++i) {
    load("wl-a" + std::to_string(i), workload.archive_length, (workload.titles + i) % msus,
         false, -1);
  }
  // Copy the Zipf head onto every MSU (the paper's section 2.3.3 remedy for
  // skewed popularity); otherwise the top titles pin one MSU.
  for (int i = 0; i < shape_.replicated_titles; ++i) {
    for (int m = 0; m < msus; ++m) {
      if (m == i % msus) {
        continue;
      }
      const Status copied =
          calliope.ReplicateContent("wl-t" + std::to_string(i), static_cast<size_t>(m));
      if (!copied.ok()) {
        std::fprintf(stderr, "replicate failed: %s\n", copied.ToString().c_str());
        std::exit(1);
      }
    }
  }
  recording_feed_ = GenerateCbr(CbrSourceConfig{}, workload.recording_length);
  return workload.client_hosts;
}

void Bench::ConnectClients(int hosts) {
  Simulator& sim = calliope_->sim();
  std::vector<char> connected(static_cast<size_t>(hosts), 0);
  for (int c = 0; c < hosts; ++c) {
    clients_.push_back(&calliope_->AddClient("viewers" + std::to_string(c)));
    [](CalliopeClient* client, char* flag) -> Task {
      *flag = (co_await client->Connect("bob", "bob-key")).ok() ? 1 : 0;
    }(clients_.back(), &connected[static_cast<size_t>(c)]);
  }
  const SimTime deadline = sim.Now() + SimTime::Seconds(30);
  while (std::count(connected.begin(), connected.end(), 0) > 0 && sim.Now() < deadline) {
    sim.RunFor(SimTime::Millis(20));
  }
  if (std::count(connected.begin(), connected.end(), 0) > 0) {
    std::fprintf(stderr, "client hosts failed to connect\n");
    std::exit(1);
  }
}

void Bench::PlanSessions() {
  if (shape_.churn) {
    schedule_ = BuildWorkloadSchedule(shape_.load);
    return;
  }
  // Stream i plays a title on MSU i % msus, spread over its disks and
  // titles; the seed shuffles the order the streams are offered in.
  const int msus = shape_.config.msu_count;
  std::vector<int> order(static_cast<size_t>(shape_.streams));
  for (int i = 0; i < shape_.streams; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  Rng rng(shape_.config.seed ^ 0x9E3779B97F4A7C15ull);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  for (const int i : order) {
    const int slot = i / msus;
    auto session = std::make_unique<Session>();
    session->title = FixedTitle(i % msus, slot % disks_per_msu(),
                                (slot / disks_per_msu()) % titles_per_disk());
    session->client = clients_[sessions_.size() % clients_.size()];
    session->port = "tv" + std::to_string(sessions_.size());
    sessions_.push_back(std::move(session));
  }
}

Task Bench::RunSession(Session* session) {
  Simulator& sim = calliope_->sim();
  CalliopeClient* client = session->client;
  const SessionPlan& plan = session->plan;
  const bool recorder = plan.kind == SessionPlan::Kind::kRecorder;
  auto port = co_await client->RegisterPort(session->port, "mpeg1");
  if (!port.ok()) {
    session->outcome = Outcome::kPortFailed;
    session->retired = true;
    co_return;
  }
  const AdmissionClass klass = ClassForSession(plan.kind);
  session->requested = sim.Now();
  Result<CalliopeClient::StartResult> start =
      recorder ? co_await client->Record(session->title, "mpeg1", session->port,
                                         shape_.load.recording_length + SimTime::Seconds(2), klass)
               : co_await client->Play(session->title, session->port, klass);
  if (!start.ok()) {
    session->outcome = Outcome::kStartFailed;
    session->retired = true;
    co_return;
  }
  session->group = start->group;
  session->queued = start->queued;
  const Status ready = co_await client->WaitForGroupReady(session->group, shape_.ready_timeout);
  if (!ready.ok()) {
    session->outcome = session->queued ? Outcome::kQueuedFailed : Outcome::kNeverReady;
    session->retired = true;
    co_return;
  }
  session->ready = sim.Now();
  session->outcome = Outcome::kServed;
  if (!shape_.churn) {
    session->retired = true;  // plays on until Drain quits it
    co_return;
  }
  if (recorder) {
    (void)co_await client->SendRecording(session->group, 0, recording_feed_);
  } else if (plan.kind == SessionPlan::Kind::kSurfer && shape_.load.surfer_ops_max > 0) {
    // Channel surfer: VCR ops spread across the hold, as WorkloadDriver does.
    Rng ops(plan.ops_seed);
    const int op_count =
        1 + static_cast<int>(ops.NextBelow(static_cast<uint64_t>(shape_.load.surfer_ops_max)));
    const SimTime slice = SimTime::Micros(plan.hold.micros() / (op_count + 1));
    for (int i = 0; i < op_count; ++i) {
      co_await sim.Delay(slice);
      if (client->GroupTerminated(session->group)) {
        break;
      }
      VcrCommand::Op op = VcrCommand::Op::kPause;
      SimTime seek_to;
      switch (ops.NextBelow(4)) {
        case 0:
          op = VcrCommand::Op::kPause;
          break;
        case 1:
          op = VcrCommand::Op::kPlay;
          break;
        case 2:
          op = VcrCommand::Op::kSeek;
          seek_to = SimTime::Micros(static_cast<int64_t>(
              ops.NextBelow(static_cast<uint64_t>(shape_.load.title_length.micros()))));
          break;
        default:
          op = VcrCommand::Op::kFastForward;
          break;
      }
      ++session->vcr_ops;
      (void)co_await client->Vcr(session->group, op, seek_to);
    }
    co_await sim.Delay(slice);
  } else {
    co_await sim.Delay(plan.hold);
  }
  session->ended = sim.Now();
  if (!client->GroupTerminated(session->group)) {
    (void)co_await client->Quit(session->group);
  }
  session->retired = true;
}

Task Bench::ArrivalLoop() {
  Simulator& sim = calliope_->sim();
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const SessionPlan& plan = schedule_[i];
    if (run_start_ + plan.start > sim.Now()) {
      co_await sim.Delay(run_start_ + plan.start - sim.Now());
    }
    auto session = std::make_unique<Session>();
    session->plan = plan;
    switch (plan.kind) {
      case SessionPlan::Kind::kArchive:
        session->title = "wl-a" + std::to_string(plan.title);
        break;
      case SessionPlan::Kind::kRecorder:
        session->title = "wl-r" + std::to_string(i);
        break;
      default:
        session->title = "wl-t" + std::to_string(plan.title);
        break;
    }
    session->client = clients_.at(static_cast<size_t>(plan.client_host));
    session->port = "wp" + std::to_string(i);
    sessions_.push_back(std::move(session));
    RunSession(sessions_.back().get());
  }
  arrivals_done_ = true;
}

Task Bench::QuitSession(Session* session) {
  session->ended = calliope_->sim().Now();
  (void)co_await session->client->Quit(session->group);
  session->retired = true;
}

void Bench::Slice(const char* phase, SimTime span) {
  {
    ScopedSpan slice(spans_, std::string(phase) + ".slice", trace_);
    calliope_->sim().RunFor(span);
  }
  if (trace_) {
    for (size_t m = 0; m < calliope_->msu_count(); ++m) {
      Msu& msu = calliope_->msu(m);
      for (size_t d = 0; d < msu.machine().disk_count(); ++d) {
        slots_max_ = std::max<int64_t>(
            slots_max_, msu.duty_cycle().active_streams(static_cast<int>(d)));
      }
    }
  }
}

bool Bench::AllRetired() const {
  for (const auto& session : sessions_) {
    if (!session->retired) {
      return false;
    }
  }
  return true;
}

void Bench::Ramp() {
  ScopedSpan ramp(spans_, "sim.ramp");
  Simulator& sim = calliope_->sim();
  run_start_ = sim.Now();
  if (shape_.churn) {
    ArrivalLoop();
    while (sim.Now() < run_start_ + shape_.warmup) {
      Slice("ramp", SimTime::Seconds(1));
    }
    return;
  }
  const size_t batch =
      shape_.admit_batch == 0 ? sessions_.size() : static_cast<size_t>(shape_.admit_batch);
  for (size_t i = 0; i < sessions_.size(); ++i) {
    RunSession(sessions_[i].get());
    if ((i + 1) % batch == 0 && i + 1 < sessions_.size()) {
      Slice("ramp", shape_.admit_interval);
    }
  }
  arrivals_done_ = true;
  const SimTime deadline = sim.Now() + shape_.ready_timeout + SimTime::Seconds(5);
  while (!AllRetired() && sim.Now() < deadline) {
    Slice("ramp", SimTime::Millis(100));
  }
  // Let the last admissions pass their quiet window (flow promotion).
  Slice("ramp", SimTime::Seconds(1));
}

void Bench::Steady() {
  ScopedSpan steady(spans_, "sim.steady");
  Simulator& sim = calliope_->sim();
  const SimTime end =
      shape_.churn ? run_start_ + WorkloadHorizon(shape_.load) : sim.Now() + shape_.steady;
  while (sim.Now() < end) {
    Slice("steady", std::min(SimTime::Seconds(1), end - sim.Now()));
  }
  measured_end_ = sim.Now();
  for (CalliopeClient* client : clients_) {
    client->ForEachPort([&](const ClientDisplayPort& port) { delivered_ += port.bytes_received(); });
  }
  for (size_t m = 0; m < calliope_->msu_count(); ++m) {
    streams_running_ += calliope_->msu(m).active_stream_count();
  }
}

void Bench::Drain() {
  ScopedSpan drain(spans_, "sim.drain");
  Simulator& sim = calliope_->sim();
  if (!shape_.churn) {
    for (const auto& session : sessions_) {
      if (session->outcome == Outcome::kServed) {
        session->retired = false;
        QuitSession(session.get());
      }
    }
  }
  // Churn sessions retire by themselves: holds are bounded and waits time
  // out. Termination notices then travel MSU -> Coordinator until the
  // ledger drains; a ledger that never does fails the output check.
  const ResourceLedger& ledger = calliope_->coordinator().ledger();
  const SimTime deadline = sim.Now() + SimTime::Seconds(600);
  while (!(arrivals_done_ && AllRetired() && ledger.outstanding_holds() == 0) &&
         sim.Now() < deadline) {
    sim.RunFor(SimTime::Millis(500));
  }
}

int Bench::Run() {
  wall_start_ = Clock::now();
  Setup();
  Ramp();
  Steady();
  Drain();
  ClusterReport report;
  uint64_t digest = 0;
  {
    ScopedSpan span(spans_, "obs.report");
    report = calliope_->BuildClusterReport();
    digest = Fnv1a(report.ToJson());
  }
  return Finish(report, digest) ? 0 : 1;
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string PortKey(CalliopeClient& client, const std::string& port) {
  return client.node().name() + "/" + port;
}

PortTotals Bench::TotalPorts() const {
  PortTotals totals;
  for (CalliopeClient* client : clients_) {
    client->ForEachPort([&](const ClientDisplayPort& port) {
      totals.packets_received += port.packets_received();
      totals.glitches += port.glitches();
      totals.out_of_order += port.out_of_order();
      totals.max_gap_us = std::max(totals.max_gap_us, port.max_arrival_gap().micros());
    });
  }
  return totals;
}

SessionTally Bench::TallySessions() const {
  std::map<std::string, int64_t> packets;
  for (CalliopeClient* client : clients_) {
    client->ForEachPort([&](const ClientDisplayPort& port) {
      packets[PortKey(*client, port.name())] = port.packets_received();
    });
  }
  SessionTally tally;
  for (const auto& session : sessions_) {
    Outcome outcome = session->outcome;
    if (outcome == Outcome::kPending && session->group != 0) {
      outcome = session->queued ? Outcome::kQueuedFailed : Outcome::kNeverReady;
    }
    ++tally.outcomes[outcome];
    ++tally.attempted;
    tally.vcr_ops += session->vcr_ops;
    if (outcome != Outcome::kServed) {
      tally.admit_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++tally.served;
    tally.admit_ms.push_back((session->ready - session->requested).millis_f());
    if (session->plan.kind == SessionPlan::Kind::kRecorder) {
      continue;  // a recorder only sends
    }
    ++tally.viewers;
    // A viewer that played undisturbed for a second has packets; a surfer
    // may pause before its first one arrives.
    if (session->vcr_ops == 0 && session->ended - session->ready >= SimTime::Seconds(1) &&
        packets[PortKey(*session->client, session->port)] == 0) {
      ++tally.silent_ports;
    }
  }
  return tally;
}

std::vector<std::string> Bench::CheckOutputs(const PortTotals& ports,
                                             const SessionTally& tally) {
  std::vector<std::string> violations;
  // Out-of-order arrivals must be zero wherever no VCR command ran. A VCR op
  // that interrupts a send in flight makes the MSU reuse that packet's
  // sequence number, for every member of a shared group; that known defect
  // is reported (client.out_of_order), not failed.
  if (ports.out_of_order != 0 && tally.vcr_ops == 0) {
    violations.push_back("client.out_of_order = " + std::to_string(ports.out_of_order));
  }
  if (tally.silent_ports != 0) {
    violations.push_back(std::to_string(tally.silent_ports) +
                         " started sessions received no packets");
  }
  if (!shape_.churn && (tally.served != shape_.streams || streams_running_ != shape_.streams)) {
    violations.push_back("ran " + std::to_string(streams_running_) + " of " +
                         std::to_string(shape_.streams) + " streams asked for");
  }
  const ResourceLedger& ledger = calliope_->coordinator().ledger();
  if (ledger.TotalReserved() != DataRate() || ledger.outstanding_holds() != 0) {
    violations.push_back("ledger did not drain: reserved " +
                         std::to_string(ledger.TotalReserved().bits_per_sec()) + " bit/s, " +
                         std::to_string(ledger.outstanding_holds()) + " holds");
  }
  return violations;
}

// Stream-seconds of 1.5 Mbit/s MPEG-1 media in `bytes`.
double StreamSeconds(Bytes bytes) { return static_cast<double>(bytes.count()) * 8.0 / 1.5e6; }

JsonFields Bench::EndToEnd(const SessionTally& tally, const LatencySummary& admit) {
  const double wall_s = SecondsBetween(wall_start_, Clock::now());
  const double setup_s = spans_.Seconds("setup");
  LatenessHistogram lateness;
  for (size_t m = 0; m < calliope_->msu_count(); ++m) {
    lateness.Merge(calliope_->msu(m).AggregateLateness());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonFields e2e;
  e2e.Add("setup_s", setup_s);
  e2e.Add("wall_s", wall_s);
  e2e.Add("stream_s_per_host_s", StreamSeconds(delivered_) / std::max(wall_s - setup_s, 1e-9));
  e2e.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  e2e.Add("admit_p50_ms", admit.p50_ms);
  e2e.Add("admit_tail_ms", admit.tail_ms);
  e2e.Add("lateness_p99_us", InterpolatedQuantileUs(lateness, 0.99));
  e2e.Add("within_50ms_pct", 100.0 * lateness.FractionWithin(SimTime::Millis(50)));
  e2e.Add("goodput_pct", 100.0 * static_cast<double>(tally.served) /
                             static_cast<double>(std::max<int64_t>(tally.attempted, 1)));
  e2e.Add("delivered_mbps", static_cast<double>(delivered_.count()) * 8.0 / 1e6 /
                                std::max((measured_end_ - run_start_).seconds(), 1e-9));
  return e2e;
}

// Host ns per simulator event over slices [from, to).
double NsPerEvent(const std::vector<const Span*>& slices, size_t from, size_t to) {
  double seconds = 0;
  int64_t events = 0;
  for (size_t i = from; i < to; ++i) {
    seconds += SecondsBetween(slices[i]->start, slices[i]->end);
    events += slices[i]->events;
  }
  return events == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(events);
}

// Growth is the ns/event of the slices holding the run's last tenth of
// events over that of the slices holding its first tenth.
Bench::SliceCosts Bench::CostPerSlice() const {
  SliceCosts costs;
  for (const Span& span : spans_.spans()) {
    if (span.name == "ramp.slice" || span.name == "steady.slice") {
      costs.slices.push_back(&span);
    } else if (span.name == "sim.ramp" || span.name == "sim.steady") {
      costs.run_events += span.events;
    }
  }
  const std::vector<const Span*>& slices = costs.slices;
  if (slices.empty()) {
    return costs;
  }
  size_t head = 0;
  for (int64_t seen = 0; head < slices.size() && seen * 10 < costs.run_events; ++head) {
    seen += slices[head]->events;
  }
  size_t tail = slices.size();
  for (int64_t seen = 0; tail > 0 && seen * 10 < costs.run_events;) {
    seen += slices[--tail]->events;
  }
  costs.growth = NsPerEvent(slices, tail, slices.size()) /
                 std::max(NsPerEvent(slices, 0, head), 1e-9);
  return costs;
}

JsonFields Bench::PerLayer(const MetricsSnapshot& snapshot, const PortTotals& ports,
                           const SessionTally& tally) {
  Installation& calliope = *calliope_;
  JsonFields layers;

  // sim: host cost per event over the ramp and steady windows.
  const SliceCosts costs = CostPerSlice();
  const int64_t run_events = costs.run_events;
  const double run_s = spans_.Seconds("sim.ramp") + spans_.Seconds("sim.steady");
  const double stream_s = StreamSeconds(delivered_);
  layers.AddInt("sim.events", calliope.sim().events_fired());
  layers.Add("sim.events_per_stream_s",
             stream_s > 0 ? static_cast<double>(run_events) / stream_s : 0.0);
  layers.Add("sim.ns_per_event",
             run_events == 0 ? 0.0 : run_s * 1e9 / static_cast<double>(run_events));
  layers.Add("sim.ns_per_event_growth", costs.growth);
  for (const char* span : {"sim.ramp", "sim.steady", "sim.drain", "calliope.construct",
                           "calliope.boot", "media.load", "client.connect", "load.schedule",
                           "obs.report"}) {
    layers.Add(std::string(span) + "_s", spans_.Seconds(span));
  }

  // hw: the MSU hosts' devices and the Coordinator's CPU.
  double cpu_max = 0, membus_max = 0, scsi_max = 0;
  int64_t disk_ops = 0, disk_bytes = 0, frames_sent = 0, enobufs = 0;
  for (size_t m = 0; m < calliope.msu_count(); ++m) {
    Machine& machine = calliope.msu(m).machine();
    cpu_max = std::max(cpu_max, machine.cpu().Utilization());
    membus_max = std::max(membus_max, machine.memory().Utilization());
    for (size_t h = 0; h < machine.hba_count(); ++h) {
      scsi_max = std::max(scsi_max, machine.hba(h).Utilization());
    }
    for (size_t d = 0; d < machine.disk_count(); ++d) {
      disk_ops += machine.disk(d).completed();
      disk_bytes += machine.disk(d).bytes_transferred().count();
    }
    frames_sent += machine.fddi().frames_sent() + machine.ethernet().frames_sent();
    enobufs += machine.fddi().enobufs_count() + machine.ethernet().enobufs_count();
  }
  layers.Add("hw.cpu.util_max", cpu_max);
  layers.Add("coord.cpu_util", calliope.coordinator_node().machine().cpu().Utilization());
  layers.Add("hw.membus.util_max", membus_max);
  layers.Add("hw.scsi.util_max", scsi_max);
  layers.AddInt("hw.disk.ops", disk_ops);
  layers.AddInt("hw.disk.bytes", disk_bytes);
  layers.AddInt("hw.nic.frames_sent", frames_sent);
  layers.AddInt("hw.nic.enobufs", enobufs);

  // net, msu (with flow fidelity and the page cache), sched.
  for (const char* name :
       {"net.datagrams.sent", "net.bytes.delivery", "net.bytes.intra", "net.udp.dropped"}) {
    layers.AddInt(name, CounterValue(snapshot, name));
  }
  const int64_t msu_packets = SumCounters(snapshot, "msu.", ".packets_sent");
  layers.AddInt("msu.packets_sent", msu_packets);
  for (const char* suffix : {"packets_late", "buffer_stalls", "blocks_read", "blocks_written",
                             "ibtree_internal_reads"}) {
    layers.AddInt(std::string("msu.") + suffix,
                  SumCounters(snapshot, "msu.", std::string(".") + suffix));
  }
  const int64_t flow_packets = CounterValue(snapshot, "sim.flow.packets");
  layers.Add("sim.flow.packet_share",
             msu_packets == 0 ? 0.0
                              : 1.0 - static_cast<double>(flow_packets) /
                                          static_cast<double>(msu_packets));
  layers.AddInt("sim.flow.demotions", CounterValue(snapshot, "sim.flow.demotions"));
  layers.AddInt("sim.flow.promotions", CounterValue(snapshot, "sim.flow.promotions"));
  const int64_t hits = CounterValue(snapshot, "sim.cache.interval_hits") +
                       CounterValue(snapshot, "sim.cache.prefix_hits");
  const int64_t lookups = hits + CounterValue(snapshot, "sim.cache.misses");
  layers.Add("sim.cache.hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups));
  layers.AddInt("sim.cache.evictions", CounterValue(snapshot, "sim.cache.evictions"));
  layers.AddInt("sched.slots_max", slots_max_);

  // coord / place: one disk stream feeds every member of a shared group, an
  // attach reads from the cache, any other viewer has a disk stream alone.
  for (const char* name :
       {"coord.requests.handled", "coord.admissions.accepted", "coord.admissions.queued",
        "coord.admissions.rejected", "coord.requests.expired", "coord.groups.formed",
        "coord.groups.attaches"}) {
    layers.AddInt(name, CounterValue(snapshot, name));
  }
  const int64_t disk_streams = tally.viewers - CounterValue(snapshot, "coord.groups.members") -
                               CounterValue(snapshot, "coord.groups.attaches") +
                               CounterValue(snapshot, "coord.groups.formed");
  layers.Add("coord.viewers_per_disk_stream",
             static_cast<double>(tally.viewers) /
                 static_cast<double>(std::max<int64_t>(disk_streams, 1)));

  // client, load.
  layers.AddInt("client.packets_received", ports.packets_received);
  layers.AddInt("client.glitches", ports.glitches);
  layers.AddInt("client.out_of_order", ports.out_of_order);
  layers.AddInt("client.max_gap_us", ports.max_gap_us);
  layers.AddInt("load.vcr_ops", tally.vcr_ops);
  for (const Outcome outcome : kFailureReasons) {
    const auto it = tally.outcomes.find(outcome);
    layers.AddInt(std::string("load.failed.") + OutcomeName(outcome),
                  it == tally.outcomes.end() ? 0 : it->second);
  }
  return layers;
}

void Bench::PrintSpans() const {
  const std::vector<Span>& spans = spans_.spans();
  const std::vector<double> self = spans_.SelfSeconds();
  struct Row {
    double total_s = 0;
    double self_s = 0;
    int64_t events = 0;
  };
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (rows.find(spans[i].name) == rows.end()) {
      order.push_back(spans[i].name);
    }
    Row& row = rows[spans[i].name];
    row.total_s += SecondsBetween(spans[i].start, spans[i].end);
    row.self_s += self[i];
    row.events += spans[i].events;
  }
  std::printf("spans (host):\n  %-22s %10s %10s %12s\n", "span", "total_s", "self_s", "events");
  for (const std::string& name : order) {
    const Row& row = rows[name];
    std::printf("  %-22s %10.4f %10.4f %12" PRId64 "\n", name.c_str(), row.total_s, row.self_s,
                row.events);
  }
  const SliceCosts costs = CostPerSlice();
  std::printf("ns per event, each slice (%zu slices, growth %.3f):\n ", costs.slices.size(),
              costs.growth);
  for (size_t i = 0; i < costs.slices.size(); ++i) {
    std::printf(" %.0f", NsPerEvent(costs.slices, i, i + 1));
  }
  std::printf("\n");
}

bool Bench::Finish(const ClusterReport& report, uint64_t digest) {
  std::printf("workload %s  seed %" PRIu64 "  trace %d\n", shape_.name.c_str(),
              shape_.config.seed, trace_ ? 1 : 0);
  const PortTotals ports = TotalPorts();
  const SessionTally tally = TallySessions();
  const LatencySummary admit =
      SummarizeAdmission(tally.admit_ms, shape_.ready_timeout.millis_f());
  const JsonFields e2e = EndToEnd(tally, admit);
  const std::vector<std::string> violations = CheckOutputs(ports, tally);
  const JsonFields layers = PerLayer(report.metrics, ports, tally);

  const double sim_s = calliope_->sim().Now().seconds();
  const double measured_s = (measured_end_ - run_start_).seconds();
  std::printf("inputs: %d MSUs, %" PRId64 " sessions, %.1f simulated s (%.1f measured)\n",
              shape_.config.msu_count, tally.attempted, sim_s, measured_s);
  for (const auto& [name, value] : e2e.fields()) {
    std::printf("  %-22s %s\n", name.c_str(), value.c_str());
  }
  std::printf("  admission tail is p%.2f with %" PRId64 " of %" PRId64 " samples beyond it%s\n",
              admit.tail_pct, admit.beyond_tail, admit.samples,
              admit.tail_beyond_limit ? " (beyond the ready timeout)" : "");
  if (shape_.name == "graph1_packet") {
    std::printf("  within_50ms_pct reference: 99.6 (paper, Graph 1, 22 streams per MSU)\n");
  }
  std::printf("sessions attempted %" PRId64 ", failed %" PRId64 "\n", tally.attempted,
              tally.failed());
  JsonFields reasons;
  for (const Outcome outcome : kFailureReasons) {
    const auto it = tally.outcomes.find(outcome);
    const int64_t count = it == tally.outcomes.end() ? 0 : it->second;
    reasons.AddInt(OutcomeName(outcome), count);
    std::printf("  %-22s %6" PRId64 "  (%.2f%%)\n", OutcomeName(outcome), count,
                100.0 * static_cast<double>(count) /
                    static_cast<double>(std::max<int64_t>(tally.attempted, 1)));
  }
  std::printf("report digest %s\n", Hex(digest).c_str());
  if (trace_) {
    PrintSpans();
    for (const auto& [name, value] : layers.fields()) {
      std::printf("  %-32s %s\n", name.c_str(), value.c_str());
    }
  }
  std::string checks = "[";
  for (const std::string& violation : violations) {
    std::printf("CHECK FAILED: %s\n", violation.c_str());
    checks += (checks.size() == 1 ? "\"" : ", \"") + violation + "\"";
  }
  checks += "]";

  JsonFields inputs;
  inputs.AddInt("msus", shape_.config.msu_count);
  inputs.AddInt("sessions", tally.attempted);
  inputs.Add("sim_s", sim_s);
  inputs.Add("measured_sim_s", measured_s);
  JsonFields tail;
  tail.Add("percentile", admit.tail_pct);
  tail.AddInt("beyond", admit.beyond_tail);
  tail.AddInt("samples", admit.samples);
  JsonFields out;
  out.AddString("workload", shape_.name);
  out.AddInt("seed", static_cast<int64_t>(shape_.config.seed));
  out.AddInt("trace", trace_ ? 1 : 0);
  out.AddRaw("inputs", inputs.Render());
  out.AddInt("attempted", tally.attempted);
  out.AddInt("failed", tally.failed());
  out.AddRaw("failed_by_reason", reasons.Render());
  out.AddRaw("admit_tail", tail.Render());
  out.AddString("digest", Hex(digest));
  out.AddRaw("violations", checks);
  out.AddRaw("end_to_end", e2e.Render());
  out.AddRaw("per_layer", layers.Render());
  std::printf("%s\n", out.Render().c_str());
  std::fflush(stdout);
  return violations.empty();
}

}  // namespace
}  // namespace calliope

int main(int argc, char** argv) {
  using namespace calliope;
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  Shape shape;
  if (workload == "graph1_packet") {
    shape = Graph1Packet(seed);
  } else if (workload == "scale_flow_200") {
    shape = ScaleFlow200(seed);
  } else if (workload == "zipf_churn") {
    shape = ZipfChurn(seed);
  } else {
    std::fprintf(stderr,
                 "usage: perfbench --workload <graph1_packet|scale_flow_200|zipf_churn> "
                 "--seed <n> [--trace]\n");
    return 2;
  }
  Bench bench(std::move(shape), trace);
  return bench.Run();
}
