// Background cross-MSU rebalancing planner (DESIGN §5.8).
//
// The paper anticipates skewed popularity by hand: "we can make copies of
// popular content on several disks, but we must anticipate usage trends"
// (§2.3.3). This module closes that loop online: a periodic planner reads the
// title-popularity EWMA the sharing subsystem already maintains, the resource
// ledger's per-disk loads, and the pending-request queue, and decides which
// hot titles to copy to under-loaded MSUs and which cold dynamic replicas to
// demote. Execution (RPCs, ledger holds, oplog records) stays in the
// Coordinator; PlanRebalance itself is a pure function — same snapshot, same
// plan — so the chaos harness's equal-seed byte-identical guarantee extends
// to rebalancing decisions.
#ifndef CALLIOPE_SRC_REBALANCE_PLANNER_H_
#define CALLIOPE_SRC_REBALANCE_PLANNER_H_

#include <string>
#include <vector>

#include "src/util/units.h"

namespace calliope {

// Popularity EWMA score at which a title counts as hot: sharing pins its
// prefix pages in the serving MSU's page cache, and rebalancing gives it one
// extra replica per multiple.
inline constexpr double kHotThreshold = 3.0;

// NOTE: these structs declare constructors so they are not aggregates; GCC 12
// miscompiles aggregate init/copies inside coroutine bodies (see src/sim/co.h).
struct RebalanceConfig {
  RebalanceConfig() = default;

  bool enabled = false;
  // Per-copy transfer rate. Defaults to the MPEG-1 stream rate so a copy
  // occupies exactly one duty-cycle slot anywhere a viewer would fit — that
  // is what lets a copy squeeze onto a saturated source disk (the duty cycle
  // keeps a few slots above the Coordinator's admission budget) without ever
  // inducing lateness on live streams.
  DataRate copy_rate = DataRate::MegabitsPerSec(1.5);
};

// One installed copy of a title.
struct ReplicaView {
  ReplicaView() = default;

  std::string msu;
  int disk = 0;
  std::string file;
  int active_streams = 0;  // live streams currently served from this MSU
  bool dynamic = false;    // installed by the rebalancer (demotable)
};

struct TitleView {
  TitleView() = default;

  std::string name;
  double popularity = 0.0;  // decayed EWMA score at snapshot time
  int pending = 0;          // queued play requests for this title
  Bytes size;               // estimated bytes a replica occupies
  std::vector<ReplicaView> replicas;
  // MSUs an in-flight copy of this title is already headed to.
  std::vector<std::string> inflight_targets;
};

struct DiskView {
  DiskView() = default;

  DataRate load;  // live + replication bandwidth, as placement sees it
};

struct MsuView {
  MsuView() = default;

  std::string node;
  bool up = false;
  DataRate nic_budget;  // zero: unlimited
  DataRate nic_load;
  Bytes free_space;
  std::vector<DiskView> disks;
};

struct RebalanceSnapshot {
  RebalanceSnapshot() = default;

  std::vector<TitleView> titles;
  std::vector<MsuView> msus;
  // Per-disk live-stream admission budget (CoordinatorParams::disk_budget):
  // copies only land on target disks that keep this much headroom.
  DataRate disk_budget;
  // False while the saturation governor sheds load (DESIGN §5.9): the plan
  // still demotes cold replicas (frees space, costs no bandwidth) but starts
  // no new copies — bulk replication yields to viewers first.
  bool allow_copies = true;
};

struct CopyAction {
  CopyAction() = default;

  std::string content;
  std::string source_msu;
  int source_disk = 0;
  std::string source_file;
  std::string target_msu;
  int target_disk = 0;
  Bytes space;  // estimated replica size, held against the target
};

struct DemoteAction {
  DemoteAction() = default;

  std::string content;
  std::string msu;
  std::string file;
};

struct RebalancePlan {
  RebalancePlan() = default;

  std::vector<CopyAction> copies;
  std::vector<DemoteAction> demotes;
};

// Replicas a title wants given its popularity score and queue pressure.
int DesiredReplicas(const TitleView& title, int up_msus);

// Decides this tick's copies (bounded by `copy_slots`, the cluster-wide
// concurrency budget minus ops already in flight) and demotions. Pure and
// deterministic: inputs are examined in sorted order, queue pressure first.
RebalancePlan PlanRebalance(const RebalanceSnapshot& snapshot, const RebalanceConfig& config,
                            int copy_slots);

}  // namespace calliope

#endif  // CALLIOPE_SRC_REBALANCE_PLANNER_H_
