// Deterministic fault injection for Calliope installations.
//
// A FaultPlan is a declarative schedule of fault events on the simulator
// clock: disk errors and latency spikes on a given MSU/disk, link delays and
// partitions between node pairs, MSU crash+restart, and Coordinator restart
// (catalog survives, ledger rebuilt from MSU re-registrations). The
// FaultInjector arms a plan against the cheap check-site hooks in src/hw/disk
// (Disk::FaultHook) and src/net/network (Network::LinkFaultHook) and
// schedules the crash/restart events. Everything stochastic flows from one
// seed, so a run is bit-reproducible.
//
// Partition semantics: UDP datagrams inside a partition window are lost; TCP
// segments are *held* until the window closes (this simulator has no TCP
// retransmission, so dropping a segment would wedge the receiver's reorder
// buffer forever). Per-pair FIFO ordering is preserved across window edges so
// delayed traffic never overtakes or is overtaken.
#ifndef CALLIOPE_SRC_FAULT_FAULT_H_
#define CALLIOPE_SRC_FAULT_FAULT_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/hw/disk.h"
#include "src/msu/msu.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace calliope {

enum class FaultClass {
  kDiskError,           // probabilistic I/O errors on an MSU's disk(s)
  kDiskSlow,            // fixed extra positioning latency per request
  kLinkDelay,           // extra one-way delay between a node pair
  kPartition,           // node pair unreachable (UDP lost, TCP held)
  kMsuCrash,            // Msu::Crash at `at`, Restart after `duration`
  kCoordinatorRestart,  // Coordinator::Crash at `at`, Restart after `duration`
  // Warm-standby HA: kill whichever coordinator is the current PRIMARY at
  // `at` (the standby takes over via the lease protocol), restart the dead
  // one after `duration` — it rejoins as the new standby.
  kCoordinatorCrash,
};

const char* FaultClassName(FaultClass what);

struct FaultEvent {
  FaultEvent() = default;

  FaultClass what = FaultClass::kDiskError;
  SimTime at;        // window start, or the crash instant
  SimTime duration;  // window length, or the outage before restart
  std::string node;  // targeted MSU node; unused for kCoordinatorRestart
  // kDiskError / kDiskSlow:
  int disk = -1;  // -1 targets every disk on the node
  double probability = 1.0;  // per-access failure probability (kDiskError)
  SimTime delay;             // per-access (kDiskSlow) / per-datagram (kLinkDelay)
  bool reads = true;
  bool writes = true;
  // kLinkDelay / kPartition: the other endpoint; empty matches any peer.
  std::string peer;

  SimTime end() const { return at + duration; }
  std::string ToString() const;
};

struct FaultPlanOptions {
  FaultPlanOptions() = default;

  // All windows start and end inside [earliest, horizon].
  SimTime earliest = SimTime::Seconds(1);
  SimTime horizon = SimTime::Seconds(30);
  std::vector<std::string> msu_nodes;    // crash / disk fault targets
  std::vector<std::string> other_nodes;  // extra link endpoints (clients, coordinator)
  bool include_msu_crash = true;
  bool include_coordinator_restart = true;
  // kCoordinatorCrash events need a standby attached; default off so plans
  // for single-coordinator installations are unchanged.
  bool include_coordinator_crash = false;
};

struct FaultPlan {
  FaultPlan() = default;

  std::vector<FaultEvent> events;

  // Deterministic random plan: at least one event of every enabled fault
  // class, with randomized timing, targets and magnitudes, plus
  // two more of random classes. Same seed + options => same plan.
  static FaultPlan Random(uint64_t seed, const FaultPlanOptions& options);

  bool HasClass(FaultClass what) const;
  std::string ToString() const;
};

// Arms a FaultPlan against live subsystems. Attach targets first, then Arm()
// exactly once. The injector must outlive the simulation run.
class FaultInjector {
 public:
  // Publishes effect counters into `metrics` and arm/fire events (plus the
  // planned fault windows as spans, at Arm()) into `recorder`.
  FaultInjector(Simulator& sim, Network& network, MetricsRegistry& metrics,
                TraceRecorder& recorder, uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Hooks every disk of the MSU's machine and makes the MSU a valid
  // crash/restart target.
  void AttachMsu(const std::string& node, Msu* msu);
  void AttachCoordinator(Coordinator* coordinator, std::string coordinator_node);
  // Warm-standby HA pair member; required for kCoordinatorCrash events.
  void AttachStandbyCoordinator(Coordinator* coordinator, std::string node);

  // One line per fault firing (crashes, restarts); window events are traced
  // when they first bite. Useful as part of a determinism fingerprint.
  void set_trace(std::function<void(const std::string&)> sink) { trace_ = std::move(sink); }

  Status Arm(FaultPlan plan);
  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return armed_; }

  // Effect counters for assertions and fingerprints.
  int64_t disk_errors() const { return disk_errors_; }
  int64_t disk_slowdowns() const { return disk_slowdowns_; }
  int64_t datagrams_dropped() const { return datagrams_dropped_; }
  int64_t datagrams_delayed() const { return datagrams_delayed_; }
  int64_t msu_crashes() const { return msu_crashes_; }
  int64_t coordinator_restarts() const { return coordinator_restarts_; }
  int64_t coordinator_crashes() const { return coordinator_crashes_; }

 private:
  DiskFault OnDiskAccess(const std::string& node, int disk, Disk::Op op);
  LinkFault OnDatagram(const Datagram& datagram);
  bool MatchesPair(const FaultEvent& event, const std::string& src,
                   const std::string& dst) const;
  void Trace(const std::string& line);
  Task RestartMsuLater(Msu* msu, SimTime delay);

  Simulator* sim_;
  Network* network_;
  Rng rng_;
  FaultPlan plan_;
  bool armed_ = false;
  std::map<std::string, Msu*> msus_;
  Coordinator* coordinator_ = nullptr;
  std::string coordinator_node_;
  Coordinator* standby_coordinator_ = nullptr;
  std::string standby_node_;
  std::function<void(const std::string&)> trace_;
  TraceRecorder& recorder_;
  // FIFO clamp per (src,dst): the sim time at which the last datagram on the
  // pair was released onto the wire; later sends never release earlier.
  std::map<std::pair<std::string, std::string>, SimTime> last_release_;

  int64_t disk_errors_ = 0;
  int64_t disk_slowdowns_ = 0;
  int64_t datagrams_dropped_ = 0;
  int64_t datagrams_delayed_ = 0;
  int64_t msu_crashes_ = 0;
  int64_t coordinator_restarts_ = 0;
  int64_t coordinator_crashes_ = 0;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_FAULT_FAULT_H_
