#include "src/rebalance/planner.h"

#include <algorithm>
#include <set>

namespace calliope {

namespace {

// Popularity score at or below which surplus dynamic replicas are demoted.
constexpr double kColdThreshold = 0.25;

const MsuView* FindMsu(const RebalanceSnapshot& snapshot, const std::string& node) {
  for (const MsuView& msu : snapshot.msus) {
    if (msu.node == node) {
      return &msu;
    }
  }
  return nullptr;
}

DataRate TotalLoad(const MsuView& msu) {
  DataRate total;
  for (const DiskView& disk : msu.disks) {
    total = total + disk.load;
  }
  return total;
}

bool NicFits(const MsuView& msu, DataRate rate) {
  return msu.nic_budget.is_zero() || msu.nic_load + rate <= msu.nic_budget;
}

// Source choice: the copy behaves like one extra viewer, so read from the
// replica whose disk is least loaded. No budget requirement — the source
// MSU's duty cycle is the real gate (it keeps slots above the admission
// budget), and a refused prepare just retries next tick.
const ReplicaView* PickSource(const RebalanceSnapshot& snapshot, const TitleView& title,
                              DataRate copy_rate) {
  const ReplicaView* best = nullptr;
  DataRate best_load;
  for (const ReplicaView& replica : title.replicas) {
    const MsuView* msu = FindMsu(snapshot, replica.msu);
    if (msu == nullptr || !msu->up || !NicFits(*msu, copy_rate)) {
      continue;
    }
    if (replica.disk < 0 || static_cast<size_t>(replica.disk) >= msu->disks.size()) {
      continue;
    }
    const DataRate load = msu->disks[static_cast<size_t>(replica.disk)].load;
    if (best == nullptr || load < best_load) {
      best = &replica;
      best_load = load;
    }
  }
  return best;
}

// Target choice: the least-loaded up MSU that does not already hold (or
// expect) the title, with space for the replica, NIC headroom for the copy,
// and at least one disk that keeps the live admission budget clear.
struct TargetChoice {
  TargetChoice() = default;

  const MsuView* msu = nullptr;
  int disk = -1;
};

TargetChoice PickTarget(const RebalanceSnapshot& snapshot, const TitleView& title,
                        const RebalanceConfig& config, const std::set<std::string>& busy) {
  TargetChoice best;
  DataRate best_total;
  for (const MsuView& msu : snapshot.msus) {
    if (!msu.up || busy.count(msu.node) != 0) {
      continue;
    }
    if (msu.free_space < title.size || !NicFits(msu, config.copy_rate)) {
      continue;
    }
    int disk = -1;
    DataRate disk_load;
    for (size_t d = 0; d < msu.disks.size(); ++d) {
      const DataRate load = msu.disks[d].load;
      if (load + config.copy_rate > snapshot.disk_budget) {
        continue;
      }
      if (disk < 0 || load < disk_load) {
        disk = static_cast<int>(d);
        disk_load = load;
      }
    }
    if (disk < 0) {
      continue;
    }
    const DataRate total = TotalLoad(msu);
    if (best.msu == nullptr || total < best_total) {
      best.msu = &msu;
      best.disk = disk;
      best_total = total;
    }
  }
  return best;
}

}  // namespace

int DesiredReplicas(const TitleView& title, int up_msus) {
  int want = 1 + static_cast<int>(title.popularity / kHotThreshold);
  // Queue pressure is the strongest signal: viewers are waiting on this
  // title right now, so it wants at least one more copy than it has.
  if (title.pending > 0) {
    const int have = static_cast<int>(title.replicas.size() + title.inflight_targets.size());
    want = std::max(want, have + 1);
  }
  return std::max(1, std::min(want, up_msus));
}

RebalancePlan PlanRebalance(const RebalanceSnapshot& snapshot, const RebalanceConfig& config,
                            int copy_slots) {
  RebalancePlan plan;
  int up_msus = 0;
  for (const MsuView& msu : snapshot.msus) {
    if (msu.up) {
      ++up_msus;
    }
  }

  // Most-pressured titles first: queue depth, then popularity, then name so
  // equal-seed runs always walk the same order.
  std::vector<const TitleView*> order;
  order.reserve(snapshot.titles.size());
  for (const TitleView& title : snapshot.titles) {
    order.push_back(&title);
  }
  std::sort(order.begin(), order.end(), [](const TitleView* a, const TitleView* b) {
    if (a->pending != b->pending) {
      return a->pending > b->pending;
    }
    if (a->popularity != b->popularity) {
      return a->popularity > b->popularity;
    }
    return a->name < b->name;
  });

  for (const TitleView* title : order) {
    if (!snapshot.allow_copies || copy_slots <= 0) {
      break;
    }
    const int have =
        static_cast<int>(title->replicas.size() + title->inflight_targets.size());
    int want = DesiredReplicas(*title, up_msus);
    if (want <= have) {
      continue;
    }
    const ReplicaView* source = PickSource(snapshot, *title, config.copy_rate);
    if (source == nullptr) {
      continue;
    }
    // MSUs that already hold or expect this title are off limits as targets.
    std::set<std::string> busy;
    for (const ReplicaView& replica : title->replicas) {
      busy.insert(replica.msu);
    }
    for (const std::string& target : title->inflight_targets) {
      busy.insert(target);
    }
    while (want > static_cast<int>(busy.size()) && copy_slots > 0) {
      const TargetChoice target = PickTarget(snapshot, *title, config, busy);
      if (target.msu == nullptr) {
        break;
      }
      CopyAction copy;
      copy.content = title->name;
      copy.source_msu = source->msu;
      copy.source_disk = source->disk;
      copy.source_file = source->file;
      copy.target_msu = target.msu->node;
      copy.target_disk = target.disk;
      copy.space = title->size;
      plan.copies.push_back(std::move(copy));
      busy.insert(target.msu->node);
      --copy_slots;
    }
  }

  // Demotions: cold titles shed their idle dynamic replicas, one per title
  // per tick, never the last copy and never while a copy is in flight.
  for (const TitleView& title : snapshot.titles) {
    if (title.popularity > kColdThreshold || title.pending > 0 ||
        !title.inflight_targets.empty()) {
      continue;
    }
    const int keep = DesiredReplicas(title, up_msus);
    if (static_cast<int>(title.replicas.size()) <= std::max(1, keep)) {
      continue;
    }
    for (const ReplicaView& replica : title.replicas) {
      const MsuView* msu = FindMsu(snapshot, replica.msu);
      if (!replica.dynamic || replica.active_streams > 0 || msu == nullptr || !msu->up) {
        continue;
      }
      DemoteAction demote;
      demote.content = title.name;
      demote.msu = replica.msu;
      demote.file = replica.file;
      plan.demotes.push_back(std::move(demote));
      break;
    }
  }
  return plan;
}

}  // namespace calliope
