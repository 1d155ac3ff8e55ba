// One-call construction of a complete Calliope installation inside a
// simulation: a Coordinator host, N MSU hosts, the intra-server Ethernet and
// the FDDI delivery network — plus admin helpers to bulk-load content (with
// fast-forward / fast-backward variants) and to attach client hosts.
//
// This is the entry point examples and benchmarks use:
//
//   InstallationConfig config;
//   config.msu_count = 3;
//   Installation calliope(config);
//   calliope.Boot();
//   calliope.LoadMpegMovie("movie0", SimTime::Seconds(120), 0, true);
//   CalliopeClient& client = calliope.AddClient("client0");
//   ... client.Connect / RegisterPort / Play ...
//   calliope.sim().RunFor(SimTime::Seconds(60));
#ifndef CALLIOPE_SRC_CALLIOPE_CALLIOPE_H_
#define CALLIOPE_SRC_CALLIOPE_CALLIOPE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "src/coord/coordinator.h"
#include "src/fault/fault.h"
#include "src/media/mpeg.h"
#include "src/media/sources.h"
#include "src/msu/msu.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/sampler.h"
#include "src/obs/trace.h"

namespace calliope {

struct InstallationConfig {
  int msu_count = 1;
  MachineParams msu_machine = MicronP66();
  CoordinatorParams coordinator;
  MsuParams msu;
  NetworkParams network;
  // "For very small installations, the Coordinator and MSU software may run
  // on the same machine": the Coordinator shares msu0's host, competing for
  // its CPU instead of having its own box.
  bool colocate_coordinator = false;
  // Warm-standby Coordinator HA: adds a second coordinator host
  // ("coordinator2") that replays the primary's oplog and takes over on
  // primary death. MSUs and clients are configured to redial the pair.
  // Ignored when colocate_coordinator is set.
  bool standby_coordinator = false;
  // Continuous telemetry: a nonzero sampler.period turns on the
  // MetricsSampler — per-window metric timelines, windowed QoS aggregation
  // from the MSU/client hot paths, and evaluation of `slos` at every tick.
  // Left at the zero default, no sampler exists and reports are byte-
  // identical to an installation without this feature.
  SamplerConfig sampler;
  std::vector<SloSpec> slos;
  uint64_t seed = 1996;
};

class Installation {
 public:
  explicit Installation(InstallationConfig config = InstallationConfig());
  // Writes the trace file when tracing was enabled with a path (EnableTracing
  // or the CALLIOPE_TRACE environment variable).
  ~Installation();

  Installation(const Installation&) = delete;
  Installation& operator=(const Installation&) = delete;

  Simulator& sim() { return sim_; }
  Network& network() { return network_; }
  Coordinator& coordinator() { return *coordinator_; }
  // Null unless config.standby_coordinator was set.
  Coordinator* standby_coordinator() { return standby_.get(); }
  // Whichever member of the HA pair currently holds the primaryship (the
  // higher epoch wins if both momentarily claim it); the sole coordinator
  // in non-HA installations.
  Coordinator& current_primary();
  // Node name the Coordinator answers on ("coordinator", or "msu0" when
  // colocated).
  const std::string& coordinator_host() const;
  size_t msu_count() const { return msus_.size(); }
  Msu& msu(size_t i) { return *msus_.at(i); }
  NetNode& msu_node(size_t i) { return *msu_nodes_.at(i); }
  NetNode& coordinator_node() { return *coordinator_node_; }

  // Runs the simulation until every MSU has registered with the Coordinator.
  Status Boot(SimTime timeout = SimTime::Seconds(30));

  // Creates a (diskless) client host attached to the delivery network.
  CalliopeClient& AddClient(const std::string& name);

  // ---- administrative bulk-load (no simulated time consumed) ----

  // Installs a synthetic MPEG-1 movie as content `name` on MSU `msu_index`;
  // with_fast_scan also produces and loads the offline-filtered fast-forward
  // and fast-backward variants (§2.3.1; every-15th-frame filter).
  Status LoadMpegMovie(const std::string& name, SimTime duration, size_t msu_index,
                       bool with_fast_scan, int disk = -1);

  // Installs an arbitrary packet sequence as content of an existing atomic
  // type (e.g. NV traces as "rtp-video").
  Status LoadPackets(const std::string& name, const std::string& type_name,
                     const PacketSequence& packets, size_t msu_index, int disk = -1);

  // Standard demo customers: "alice" (admin) and "bob".
  void AddDefaultCustomers();

  // Copies existing content (and its fast-scan variants) onto another
  // MSU/disk and registers the copy in the catalog — the §2.3.3 mitigation
  // for skewed popularity: "we can make copies of popular content on several
  // disks, but we must anticipate usage trends". The scheduler then spreads
  // streams across the copies.
  Status ReplicateContent(const std::string& name, size_t msu_index, int disk = -1);

  // Wires a FaultInjector to every MSU, the Coordinator and the network (on
  // first use) and arms `plan` on the simulator clock. Call after Boot().
  Status ApplyFaultPlan(FaultPlan plan);
  // Null until ApplyFaultPlan has run.
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  // ---- observability ----

  // Every subsystem publishes into this registry; pull a MetricsSnapshot or a
  // full ClusterReport at any sim time.
  MetricsRegistry& metrics() { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  // Null unless config.sampler.period was nonzero.
  MetricsSampler* sampler() { return sampler_.get(); }
  // Turns on span/instant recording; when `path` is nonempty the Chrome
  // trace-event JSON is written there at destruction. Setting the
  // CALLIOPE_TRACE environment variable to a path does the same at
  // construction time.
  void EnableTracing(std::string path = std::string());
  const std::string& trace_path() const { return trace_path_; }
  Status WriteTrace(const std::string& path) const { return trace_.WriteFile(path); }

  // One QoS snapshot of the whole installation: metrics, per-stream lateness
  // timelines (MSU side), per-port delivery stats (client side). Everything
  // integer-valued and sorted, so equal-seed runs compare bit-identical.
  ClusterReport BuildClusterReport();

 private:
  Status InstallFile(const std::string& file_name, const PacketSequence& packets,
                     size_t msu_index, int disk, IbTreeFile* out_image);

  InstallationConfig config_;
  Simulator sim_;
  // Declared before the subsystems that publish into them (and therefore
  // destroyed after them): each subsystem holds references to both.
  MetricsRegistry metrics_;
  TraceRecorder trace_{sim_};
  std::string trace_path_;
  Network network_;
  std::unique_ptr<Machine> coordinator_machine_;
  NetNode* coordinator_node_ = nullptr;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<Machine> standby_machine_;
  NetNode* standby_node_ = nullptr;
  std::unique_ptr<Coordinator> standby_;
  std::vector<std::unique_ptr<Machine>> msu_machines_;
  std::vector<NetNode*> msu_nodes_;
  std::vector<std::unique_ptr<Msu>> msus_;
  std::vector<std::unique_ptr<Machine>> client_machines_;
  std::vector<std::unique_ptr<CalliopeClient>> clients_;
  std::unique_ptr<FaultInjector> fault_injector_;
  // Declared last: destroyed first, so its tick-event token is cancelled
  // while sim_ (declared first) is still alive.
  std::unique_ptr<MetricsSampler> sampler_;
};

// A diskless host profile for Coordinator and client machines.
MachineParams DisklessHost();

// Derives a per-installation trace path from `path`: ordinal 1 returns it
// unchanged, ordinal N>1 inserts ".N" before the extension ("out.json" →
// "out.2.json"). Used so benches that build several Installations under one
// CALLIOPE_TRACE don't overwrite each other's traces.
std::string SuffixedTracePath(const std::string& path, int ordinal);

}  // namespace calliope

#endif  // CALLIOPE_SRC_CALLIOPE_CALLIOPE_H_
