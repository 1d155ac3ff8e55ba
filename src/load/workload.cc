#include "src/load/workload.h"

#include <cmath>
#include <utility>

#include "src/media/sources.h"
#include "src/util/logging.h"

namespace calliope {

namespace {

// Default schedule when the config leaves `phases` empty.
std::vector<WorkloadPhase> DefaultPhases() {
  return {WorkloadPhase(SimTime::Seconds(10), 1.0)};
}

}  // namespace

SimTime WorkloadHorizon(const WorkloadConfig& config) {
  const std::vector<WorkloadPhase> phases =
      config.phases.empty() ? DefaultPhases() : config.phases;
  SimTime total;
  for (const WorkloadPhase& phase : phases) {
    total += phase.duration;
  }
  return total;
}

std::vector<WorkloadPhase> DiurnalPhases(double trough_per_sec, double peak_per_sec,
                                         SimTime day, int days) {
  const SimTime quarter = SimTime::Micros(day.micros() / 4);
  const double shoulder = (trough_per_sec + peak_per_sec) / 2.0;
  std::vector<WorkloadPhase> phases;
  for (int d = 0; d < days; ++d) {
    phases.emplace_back(quarter, trough_per_sec);
    phases.emplace_back(quarter, shoulder);
    phases.emplace_back(quarter, peak_per_sec);
    phases.emplace_back(quarter, shoulder);
  }
  return phases;
}

std::vector<WorkloadPhase> FlashCrowdPhases(double base_per_sec, double spike_per_sec,
                                            SimTime before, SimTime burst, SimTime after) {
  return {WorkloadPhase(before, base_per_sec), WorkloadPhase(burst, spike_per_sec),
          WorkloadPhase(after, base_per_sec)};
}

const char* SessionKindName(SessionPlan::Kind kind) {
  switch (kind) {
    case SessionPlan::Kind::kViewer:
      return "viewer";
    case SessionPlan::Kind::kSurfer:
      return "surfer";
    case SessionPlan::Kind::kArchive:
      return "archive";
    case SessionPlan::Kind::kRecorder:
      return "recorder";
  }
  return "?";
}

AdmissionClass ClassForSession(SessionPlan::Kind kind) {
  switch (kind) {
    case SessionPlan::Kind::kSurfer:
      return AdmissionClass::kInteractive;
    case SessionPlan::Kind::kViewer:
      return AdmissionClass::kStandard;
    case SessionPlan::Kind::kArchive:
    case SessionPlan::Kind::kRecorder:
      return AdmissionClass::kBulk;
  }
  return AdmissionClass::kStandard;
}

std::vector<SessionPlan> BuildWorkloadSchedule(const WorkloadConfig& config) {
  Rng rng(config.seed ^ 0x10ADull);
  const ZipfDistribution zipf(static_cast<size_t>(std::max(config.titles, 1)),
                              config.zipf_skew);
  const std::vector<WorkloadPhase> phases =
      config.phases.empty() ? DefaultPhases() : config.phases;
  const WorkloadMix& mix = config.mix;
  const int total_weight =
      std::max(1, mix.viewer + mix.surfer + mix.archive + mix.recorder);

  std::vector<SessionPlan> schedule;
  SimTime phase_start;
  int ordinal = 0;
  for (const WorkloadPhase& phase : phases) {
    const SimTime phase_end = phase_start + phase.duration;
    if (phase.arrivals_per_sec <= 0.0) {
      phase_start = phase_end;
      continue;
    }
    SimTime t = phase_start;
    while (true) {
      const double gap_sec = rng.NextExponential(1.0 / phase.arrivals_per_sec);
      t += SimTime::Micros(static_cast<int64_t>(std::llround(gap_sec * 1e6)) + 1);
      if (t >= phase_end) {
        break;
      }
      SessionPlan plan;
      plan.start = t;
      plan.client_host = ordinal % std::max(config.client_hosts, 1);
      const int pick = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(total_weight)));
      SimTime hold_mean = config.viewer_hold_mean;
      if (pick < mix.viewer) {
        plan.kind = SessionPlan::Kind::kViewer;
      } else if (pick < mix.viewer + mix.surfer) {
        plan.kind = SessionPlan::Kind::kSurfer;
        hold_mean = config.surfer_hold_mean;
      } else if (pick < mix.viewer + mix.surfer + mix.archive) {
        plan.kind = SessionPlan::Kind::kArchive;
      } else {
        plan.kind = SessionPlan::Kind::kRecorder;
      }
      if (plan.kind == SessionPlan::Kind::kArchive) {
        plan.title = static_cast<int>(
            rng.NextBelow(static_cast<uint64_t>(std::max(config.archive_titles, 1))));
      } else {
        plan.title = static_cast<int>(zipf.Sample(rng));
      }
      const double hold_sec =
          rng.NextExponential(static_cast<double>(hold_mean.micros()) / 1e6);
      plan.hold = std::max(
          SimTime::Millis(500),
          SimTime::Micros(static_cast<int64_t>(std::llround(hold_sec * 1e6))));
      plan.ops_seed = rng.NextU64();
      schedule.push_back(plan);
      ++ordinal;
    }
    phase_start = phase_end;
  }
  return schedule;
}

WorkloadDriver::WorkloadDriver(Installation& installation, WorkloadConfig config)
    : installation_(&installation),
      config_(std::move(config)),
      schedule_(BuildWorkloadSchedule(config_)) {}

Status WorkloadDriver::Prepare() {
  if (prepared_) {
    return OkStatus();
  }
  const size_t msu_count = std::max<size_t>(installation_->msu_count(), 1);
  for (int i = 0; i < config_.titles; ++i) {
    CALLIOPE_RETURN_IF_ERROR(installation_->LoadMpegMovie(
        "wl-t" + std::to_string(i), config_.title_length,
        static_cast<size_t>(i) % msu_count, /*with_fast_scan=*/true));
  }
  for (int i = 0; i < config_.archive_titles; ++i) {
    CALLIOPE_RETURN_IF_ERROR(installation_->LoadMpegMovie(
        "wl-a" + std::to_string(i), config_.archive_length,
        static_cast<size_t>(config_.titles + i) % msu_count,
        /*with_fast_scan=*/false));
  }
  for (int host = 0; host < std::max(config_.client_hosts, 1); ++host) {
    clients_.push_back(&installation_->AddClient("wl-c" + std::to_string(host)));
  }
  recording_feed_ = GenerateCbr(CbrSourceConfig{}, config_.recording_length);
  prepared_ = true;
  return OkStatus();
}

void WorkloadDriver::Start() {
  // Every load.* counter is a stats_ tally, pulled at snapshot time.
  MetricsRegistry& metrics = installation_->metrics();
  metrics.SetCounterCallback("load.arrivals", [this] { return stats_.arrivals; });
  metrics.SetCounterCallback("load.requests.started", [this] { return stats_.started; });
  metrics.SetCounterCallback("load.requests.queued", [this] { return stats_.queued; });
  metrics.SetCounterCallback("load.requests.rejected", [this] { return stats_.rejected; });
  metrics.SetCounterCallback("load.requests.failed", [this] { return stats_.failed; });
  metrics.SetCounterCallback("load.sessions.finished", [this] { return stats_.finished; });
  metrics.SetCounterCallback("load.vcr.ops", [this] { return stats_.vcr_ops; });
  metrics.SetCounterCallback("load.recordings", [this] { return stats_.recordings; });
  metrics.SetGaugeCallback("load.sessions.active", [this] { return active_sessions_; });
  ArrivalLoop();
}

Task WorkloadDriver::ArrivalLoop() {
  Simulator& sim = installation_->sim();
  // Connect every client host up front so concurrent first sessions on one
  // host never race each other's Connect.
  for (CalliopeClient* client : clients_) {
    if (!client->connected()) {
      (void)co_await client->Connect("bob", "bob-key");
    }
  }
  int ordinal = 0;
  for (const SessionPlan& plan : schedule_) {
    if (plan.start > sim.Now()) {
      co_await sim.Delay(plan.start - sim.Now());
    }
    RunSession(plan, ordinal++);
  }
  arrivals_done_ = true;
}

void WorkloadDriver::NoteRefused(AdmissionClass klass, bool was_queued) {
  const size_t idx = static_cast<size_t>(klass);
  if (idx < kAdmissionClassCount) {
    ++stats_.refused_by_class[idx];
  }
  if (was_queued) {
    ++stats_.failed;
  } else {
    ++stats_.rejected;
  }
}

Task WorkloadDriver::RunSession(SessionPlan plan, int ordinal) {
  ++stats_.arrivals;
  ++active_sessions_;
  CalliopeClient* client = clients_.at(static_cast<size_t>(plan.client_host));
  bool ok = true;
  if (!client->connected()) {
    const Status connected = co_await client->Connect("bob", "bob-key");
    ok = connected.ok();
  }
  if (ok) {
    const std::string port_name = "wp" + std::to_string(ordinal);
    auto port = co_await client->RegisterPort(port_name, "mpeg1");
    if (port.ok()) {
      if (plan.kind == SessionPlan::Kind::kRecorder) {
        co_await RunRecorderSession(client, plan, port_name, ordinal);
      } else {
        co_await RunPlaySession(client, plan, port_name);
      }
    }
  }
  ++stats_.finished;
  ++finished_sessions_;
  --active_sessions_;
}

Co<void> WorkloadDriver::RunPlaySession(CalliopeClient* client, const SessionPlan& plan,
                                        const std::string& port_name) {
  Simulator& sim = installation_->sim();
  const AdmissionClass klass = ClassForSession(plan.kind);
  const size_t idx = static_cast<size_t>(klass);
  const std::string title = (plan.kind == SessionPlan::Kind::kArchive ? "wl-a" : "wl-t") +
                            std::to_string(plan.title);
  ++stats_.submitted_by_class[idx];
  auto play = co_await client->Play(title, port_name, klass);
  if (!play.ok()) {
    NoteRefused(klass, /*was_queued=*/false);
    co_return;
  }
  if (play->queued) {
    ++stats_.queued;
  }
  const Status ready = co_await client->WaitForGroupReady(play->group, config_.ready_timeout);
  if (!ready.ok()) {
    // The queue shed or expired the request (explicit PendingRequestFailed),
    // or the wait timed out; either way the viewer never saw a frame.
    NoteRefused(klass, play->queued);
    co_return;
  }
  ++stats_.started;
  ++stats_.started_by_class[idx];
  started_groups_[idx].push_back(play->group);
  Rng ops(plan.ops_seed);
  if (plan.kind == SessionPlan::Kind::kSurfer && config_.surfer_ops_max > 0) {
    // Channel surfer: VCR ops spread across the hold, then quit.
    const int op_count =
        1 + static_cast<int>(ops.NextBelow(static_cast<uint64_t>(config_.surfer_ops_max)));
    const SimTime slice = SimTime::Micros(plan.hold.micros() / (op_count + 1));
    for (int i = 0; i < op_count; ++i) {
      co_await sim.Delay(slice);
      if (client->GroupTerminated(play->group)) {
        co_return;  // stream ended (or was failed) under us
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
              ops.NextBelow(static_cast<uint64_t>(config_.title_length.micros()))));
          break;
        default:
          op = VcrCommand::Op::kFastForward;
          break;
      }
      const Status vcr = co_await client->Vcr(play->group, op, seek_to);
      if (vcr.ok()) {
        ++stats_.vcr_ops;
      }
    }
    co_await sim.Delay(slice);
  } else {
    co_await sim.Delay(plan.hold);
  }
  if (!client->GroupTerminated(play->group)) {
    (void)co_await client->Vcr(play->group, VcrCommand::Op::kQuit);
  }
}

Co<void> WorkloadDriver::RunRecorderSession(CalliopeClient* client, const SessionPlan& plan,
                                            const std::string& port_name, int ordinal) {
  const AdmissionClass klass = ClassForSession(plan.kind);
  const size_t idx = static_cast<size_t>(klass);
  ++stats_.submitted_by_class[idx];
  const std::string name = "wl-r" + std::to_string(ordinal);
  auto record = co_await client->Record(name, "mpeg1", port_name,
                                        config_.recording_length + SimTime::Seconds(2), klass);
  if (!record.ok()) {
    NoteRefused(klass, /*was_queued=*/false);
    co_return;
  }
  if (record->queued) {
    ++stats_.queued;
  }
  const Status ready = co_await client->WaitForGroupReady(record->group, config_.ready_timeout);
  if (!ready.ok()) {
    NoteRefused(klass, record->queued);
    co_return;
  }
  ++stats_.started;
  ++stats_.started_by_class[idx];
  started_groups_[idx].push_back(record->group);
  auto sent = co_await client->SendRecording(record->group, 0, recording_feed_);
  (void)sent;
  if (!client->GroupTerminated(record->group)) {
    (void)co_await client->Vcr(record->group, VcrCommand::Op::kQuit);
  }
  ++stats_.recordings;
}

}  // namespace calliope
