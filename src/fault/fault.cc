#include "src/fault/fault.h"

#include <algorithm>

namespace calliope {

const char* FaultClassName(FaultClass what) {
  switch (what) {
    case FaultClass::kDiskError:
      return "disk-error";
    case FaultClass::kDiskSlow:
      return "disk-slow";
    case FaultClass::kLinkDelay:
      return "link-delay";
    case FaultClass::kPartition:
      return "partition";
    case FaultClass::kMsuCrash:
      return "msu-crash";
    case FaultClass::kCoordinatorRestart:
      return "coordinator-restart";
    case FaultClass::kCoordinatorCrash:
      return "coordinator-crash";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  std::string out = std::string(FaultClassName(what)) + " [" + at.ToString() + "," +
                    end().ToString() + ")";
  if (!node.empty()) {
    out += " node=" + node;
  }
  switch (what) {
    case FaultClass::kDiskError:
      out += " disk=" + std::to_string(disk) + " p=" + std::to_string(probability) +
             (reads ? " r" : "") + (writes ? " w" : "");
      break;
    case FaultClass::kDiskSlow:
      out += " disk=" + std::to_string(disk) + " +" + delay.ToString() +
             (reads ? " r" : "") + (writes ? " w" : "");
      break;
    case FaultClass::kLinkDelay:
      out += " peer=" + (peer.empty() ? std::string("*") : peer) + " +" + delay.ToString();
      break;
    case FaultClass::kPartition:
      out += " peer=" + (peer.empty() ? std::string("*") : peer);
      break;
    case FaultClass::kMsuCrash:
    case FaultClass::kCoordinatorRestart:
    case FaultClass::kCoordinatorCrash:
      break;
  }
  return out;
}

namespace {

// Random events a plan adds on top of its one-per-class guarantee.
constexpr int kExtraEvents = 2;

SimTime RandSpan(Rng& rng, SimTime lo, SimTime hi) {
  return SimTime(rng.NextInRange(lo.nanos(), hi.nanos()));
}

// Window start such that [at, at+duration) fits inside [earliest, horizon).
SimTime RandStart(Rng& rng, const FaultPlanOptions& options, SimTime duration) {
  SimTime latest = options.horizon - duration;
  if (latest < options.earliest) {
    latest = options.earliest;
  }
  return RandSpan(rng, options.earliest, latest);
}

std::string Pick(Rng& rng, const std::vector<std::string>& from) {
  if (from.empty()) {
    return "";
  }
  return from[static_cast<size_t>(rng.NextBelow(from.size()))];
}

FaultEvent MakeEvent(Rng& rng, FaultClass what, const FaultPlanOptions& options) {
  FaultEvent event;
  event.what = what;
  switch (what) {
    case FaultClass::kDiskError: {
      event.node = Pick(rng, options.msu_nodes);
      event.disk = rng.NextBernoulli(0.5) ? -1 : static_cast<int>(rng.NextBelow(2));
      event.probability = 0.2 + 0.6 * rng.NextDouble();
      const int64_t mode = rng.NextInRange(0, 2);
      event.reads = mode != 1;
      event.writes = mode != 2;
      event.duration = RandSpan(rng, SimTime::Seconds(1), SimTime::Seconds(5));
      event.at = RandStart(rng, options, event.duration);
      break;
    }
    case FaultClass::kDiskSlow: {
      event.node = Pick(rng, options.msu_nodes);
      event.disk = rng.NextBernoulli(0.5) ? -1 : static_cast<int>(rng.NextBelow(2));
      event.delay = RandSpan(rng, SimTime::Millis(5), SimTime::Millis(40));
      event.duration = RandSpan(rng, SimTime::Seconds(2), SimTime::Seconds(6));
      event.at = RandStart(rng, options, event.duration);
      break;
    }
    case FaultClass::kLinkDelay: {
      event.node = Pick(rng, options.msu_nodes);
      event.peer = rng.NextBernoulli(0.3) ? "" : Pick(rng, options.other_nodes);
      event.delay = RandSpan(rng, SimTime::Millis(10), SimTime::Millis(80));
      event.duration = RandSpan(rng, SimTime::Seconds(1), SimTime::Seconds(4));
      event.at = RandStart(rng, options, event.duration);
      break;
    }
    case FaultClass::kPartition: {
      event.node = Pick(rng, options.msu_nodes);
      // A concrete peer keeps a partition surgical; "*" would isolate the
      // node from everything, including the Coordinator.
      event.peer = Pick(rng, options.other_nodes);
      event.duration = RandSpan(rng, SimTime::Seconds(1), SimTime::Seconds(3));
      event.at = RandStart(rng, options, event.duration);
      break;
    }
    case FaultClass::kMsuCrash: {
      event.node = Pick(rng, options.msu_nodes);
      event.duration = RandSpan(rng, SimTime::Seconds(2), SimTime::Seconds(5));
      event.at = RandStart(rng, options, event.duration);
      break;
    }
    case FaultClass::kCoordinatorRestart:
    case FaultClass::kCoordinatorCrash: {
      event.duration = RandSpan(rng, SimTime::Seconds(1), SimTime::Seconds(3));
      event.at = RandStart(rng, options, event.duration);
      break;
    }
  }
  return event;
}

}  // namespace

FaultPlan FaultPlan::Random(uint64_t seed, const FaultPlanOptions& options) {
  Rng rng(seed);
  FaultPlan plan;
  std::vector<FaultClass> classes = {FaultClass::kDiskError, FaultClass::kDiskSlow,
                                     FaultClass::kLinkDelay, FaultClass::kPartition};
  if (options.include_msu_crash) {
    classes.push_back(FaultClass::kMsuCrash);
  }
  if (options.include_coordinator_restart) {
    classes.push_back(FaultClass::kCoordinatorRestart);
  }
  if (options.include_coordinator_crash) {
    classes.push_back(FaultClass::kCoordinatorCrash);
  }
  for (FaultClass what : classes) {
    plan.events.push_back(MakeEvent(rng, what, options));
  }
  for (int i = 0; i < kExtraEvents; ++i) {
    const FaultClass what = classes[static_cast<size_t>(rng.NextBelow(classes.size()))];
    plan.events.push_back(MakeEvent(rng, what, options));
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

bool FaultPlan::HasClass(FaultClass what) const {
  for (const FaultEvent& event : events) {
    if (event.what == what) {
      return true;
    }
  }
  return false;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& event : events) {
    out += event.ToString();
    out += "\n";
  }
  return out;
}

// ---- FaultInjector ----

FaultInjector::FaultInjector(Simulator& sim, Network& network, MetricsRegistry& metrics,
                             TraceRecorder& recorder, uint64_t seed)
    : sim_(&sim), network_(&network), rng_(seed), recorder_(recorder) {
  metrics.SetCounterCallback("fault.disk_errors", [this] { return disk_errors_; });
  metrics.SetCounterCallback("fault.disk_slowdowns", [this] { return disk_slowdowns_; });
  metrics.SetCounterCallback("fault.datagrams_dropped", [this] { return datagrams_dropped_; });
  metrics.SetCounterCallback("fault.datagrams_delayed", [this] { return datagrams_delayed_; });
  metrics.SetCounterCallback("fault.msu_crashes", [this] { return msu_crashes_; });
  metrics.SetCounterCallback("fault.coordinator_restarts",
                             [this] { return coordinator_restarts_; });
  metrics.SetCounterCallback("fault.coordinator_crashes",
                             [this] { return coordinator_crashes_; });
}

void FaultInjector::AttachMsu(const std::string& node, Msu* msu) {
  msus_[node] = msu;
  Machine& machine = msu->machine();
  for (size_t i = 0; i < machine.disk_count(); ++i) {
    const int disk_index = static_cast<int>(i);
    machine.disk(i).set_fault_hook(
        [this, node, disk_index](Disk::Op op, Bytes offset, Bytes size) {
          (void)offset;
          (void)size;
          return OnDiskAccess(node, disk_index, op);
        });
  }
}

void FaultInjector::AttachCoordinator(Coordinator* coordinator, std::string coordinator_node) {
  coordinator_ = coordinator;
  coordinator_node_ = std::move(coordinator_node);
}

void FaultInjector::AttachStandbyCoordinator(Coordinator* coordinator, std::string node) {
  standby_coordinator_ = coordinator;
  standby_node_ = std::move(node);
}

void FaultInjector::Trace(const std::string& line) {
  if (trace_) {
    trace_("t=" + sim_->Now().ToString() + " " + line);
  }
  // First token as the event name, full line as detail.
  const size_t space = line.find(' ');
  recorder_.Instant("fault", "fault", space == std::string::npos ? line : line.substr(0, space),
                    line);
}

Task FaultInjector::RestartMsuLater(Msu* msu, SimTime delay) {
  co_await sim_->Delay(delay);
  const Status restarted = co_await msu->Restart(coordinator_node_);
  Trace("msu-restart " + msu->node().name() + " -> " + restarted.ToString());
}

Status FaultInjector::Arm(FaultPlan plan) {
  if (armed_) {
    return FailedPreconditionError("fault injector already armed");
  }
  for (const FaultEvent& event : plan.events) {
    switch (event.what) {
      case FaultClass::kMsuCrash:
      case FaultClass::kDiskError:
      case FaultClass::kDiskSlow:
        if (!msus_.contains(event.node)) {
          return InvalidArgumentError("fault plan targets unattached MSU: " + event.node);
        }
        break;
      case FaultClass::kCoordinatorRestart:
        if (coordinator_ == nullptr) {
          return FailedPreconditionError("fault plan restarts an unattached coordinator");
        }
        break;
      case FaultClass::kCoordinatorCrash:
        if (coordinator_ == nullptr || standby_coordinator_ == nullptr) {
          return FailedPreconditionError(
              "coordinator-crash events need both HA coordinators attached");
        }
        break;
      case FaultClass::kLinkDelay:
      case FaultClass::kPartition:
        break;
    }
    if ((event.what == FaultClass::kMsuCrash) && coordinator_node_.empty()) {
      return FailedPreconditionError("msu-crash events need AttachCoordinator for re-registration");
    }
  }
  plan_ = std::move(plan);
  armed_ = true;
  network_->set_fault_hook([this](const Datagram& datagram) { return OnDatagram(datagram); });

  for (const FaultEvent& event : plan_.events) {
    Trace("arm: " + event.ToString());
    if (event.duration > SimTime() && event.what != FaultClass::kMsuCrash &&
        event.what != FaultClass::kCoordinatorRestart) {
      // Window faults are fully known at arm time: emit the whole window as a
      // span so the outage renders as a block in the trace viewer.
      recorder_.SpanAt("fault", "fault", FaultClassName(event.what), event.at, event.duration,
                       event.ToString());
    }
    if (event.what == FaultClass::kMsuCrash) {
      Msu* msu = msus_[event.node];
      const std::string node = event.node;
      const SimTime outage = event.duration;
      sim_->ScheduleAt(event.at, [this, msu, node, outage] {
        if (msu->crashed()) {
          Trace("msu-crash " + node + " skipped: already down");
          return;
        }
        ++msu_crashes_;
        Trace("msu-crash " + node);
        msu->Crash();
        RestartMsuLater(msu, outage);
      });
    } else if (event.what == FaultClass::kCoordinatorRestart) {
      sim_->ScheduleAt(event.at, [this] {
        if (coordinator_->crashed()) {
          Trace("coordinator-crash skipped: already down");
          return;
        }
        ++coordinator_restarts_;
        Trace("coordinator-crash");
        coordinator_->Crash();
      });
      sim_->ScheduleAt(event.end(), [this] {
        if (!coordinator_->crashed()) {
          return;
        }
        Trace("coordinator-restart");
        coordinator_->Restart();
      });
    } else if (event.what == FaultClass::kCoordinatorCrash) {
      // Which member of the pair is primary depends on earlier takeovers, so
      // resolve the victim at fire time and share it with the rejoin event.
      auto victim = std::make_shared<Coordinator*>(nullptr);
      sim_->ScheduleAt(event.at, [this, victim] {
        Coordinator* primary = nullptr;
        std::string name;
        if (coordinator_ != nullptr && !coordinator_->crashed() && coordinator_->is_primary()) {
          primary = coordinator_;
          name = coordinator_node_;
        } else if (standby_coordinator_ != nullptr && !standby_coordinator_->crashed() &&
                   standby_coordinator_->is_primary()) {
          primary = standby_coordinator_;
          name = standby_node_;
        }
        if (primary == nullptr) {
          Trace("coordinator-crash skipped: no live primary");
          return;
        }
        *victim = primary;
        ++coordinator_crashes_;
        Trace("coordinator-crash " + name);
        primary->Crash();
      });
      sim_->ScheduleAt(event.end(), [this, victim] {
        if (*victim == nullptr || !(*victim)->crashed()) {
          return;
        }
        Trace("coordinator-rejoin");
        (*victim)->Restart();
      });
    }
  }
  return OkStatus();
}

DiskFault FaultInjector::OnDiskAccess(const std::string& node, int disk, Disk::Op op) {
  DiskFault fault;
  if (!armed_) {
    return fault;
  }
  const SimTime now = sim_->Now();
  for (const FaultEvent& event : plan_.events) {
    if (event.node != node || now < event.at || now >= event.end()) {
      continue;
    }
    if (event.disk != -1 && event.disk != disk) {
      continue;
    }
    const bool matches_op = op == Disk::Op::kRead ? event.reads : event.writes;
    if (!matches_op) {
      continue;
    }
    if (event.what == FaultClass::kDiskError) {
      if (rng_.NextBernoulli(event.probability)) {
        fault.fail = true;
        ++disk_errors_;
      }
    } else if (event.what == FaultClass::kDiskSlow) {
      fault.extra_latency += event.delay;
      ++disk_slowdowns_;
    }
  }
  return fault;
}

bool FaultInjector::MatchesPair(const FaultEvent& event, const std::string& src,
                                const std::string& dst) const {
  if (event.peer.empty()) {
    return src == event.node || dst == event.node;
  }
  return (src == event.node && dst == event.peer) ||
         (src == event.peer && dst == event.node);
}

LinkFault FaultInjector::OnDatagram(const Datagram& datagram) {
  LinkFault fault;
  const SimTime now = sim_->Now();
  SimTime extra;
  SimTime hold_until;  // latest partition heal point covering this send
  for (const FaultEvent& event : plan_.events) {
    if (now < event.at || now >= event.end() ||
        !MatchesPair(event, datagram.src_node, datagram.dst_node)) {
      continue;
    }
    if (event.what == FaultClass::kPartition) {
      if (datagram.proto == Datagram::Proto::kUdp) {
        ++datagrams_dropped_;
        fault.drop = true;
        return fault;
      }
      // TCP has no retransmission in this model: hold the segment until the
      // partition heals instead of wedging the receiver's reorder buffer.
      hold_until = std::max(hold_until, event.end());
    } else if (event.what == FaultClass::kLinkDelay) {
      extra += event.delay;
    }
  }
  SimTime release = now + extra;
  release = std::max(release, hold_until);
  // FIFO clamp: traffic on a pair never overtakes earlier traffic, even
  // across a fault window's edge. Strictly increasing release times keep
  // same-instant events from racing in the scheduler.
  SimTime& last = last_release_[{datagram.src_node, datagram.dst_node}];
  if (release <= last) {
    release = last + SimTime(1);
  }
  last = release;
  if (release > now) {
    ++datagrams_delayed_;
    fault.extra_delay = release - now;
  }
  return fault;
}

}  // namespace calliope
