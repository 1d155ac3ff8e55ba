#include "src/place/ledger.h"

#include <iterator>
#include <utility>

namespace calliope {

DataRate MsuAccount::TotalLoad() const {
  DataRate total;
  for (const DiskAccount& disk : disks) {
    total = total + disk.load;
  }
  return total;
}

DataRate MsuAccount::ReplicationLoad() const {
  DataRate total;
  for (const DiskAccount& disk : disks) {
    total = total + disk.replication_io;
  }
  return total;
}

DataRate MsuAccount::NicLoad() const { return TotalLoad() + shared_load + ReplicationLoad(); }

int MsuAccount::TotalStreams() const {
  int total = 0;
  for (const DiskAccount& disk : disks) {
    total += disk.streams;
  }
  return total;
}

// ---- Txn ----

ResourceLedger::Txn::Txn(ResourceLedger* ledger, std::string node, int64_t epoch,
                         std::vector<ReserveItem> items)
    : ledger_(ledger),
      node_(std::move(node)),
      epoch_(epoch),
      items_(std::move(items)),
      committed_(items_.size(), false) {}

ResourceLedger::Txn::Txn(Txn&& other) noexcept
    : ledger_(other.ledger_),
      node_(std::move(other.node_)),
      epoch_(other.epoch_),
      items_(std::move(other.items_)),
      committed_(std::move(other.committed_)) {
  other.ledger_ = nullptr;
}

ResourceLedger::Txn& ResourceLedger::Txn::operator=(Txn&& other) noexcept {
  if (this != &other) {
    Rollback();
    ledger_ = other.ledger_;
    node_ = std::move(other.node_);
    epoch_ = other.epoch_;
    items_ = std::move(other.items_);
    committed_ = std::move(other.committed_);
    other.ledger_ = nullptr;
  }
  return *this;
}

ResourceLedger::Txn::~Txn() { Rollback(); }

void ResourceLedger::Txn::Rollback() {
  if (ledger_ == nullptr) {
    return;
  }
  for (size_t i = 0; i < items_.size(); ++i) {
    if (!committed_[i]) {
      ledger_->Refund(node_, epoch_, items_[i].disk, items_[i].rate, items_[i].space,
                      items_[i].cache);
    }
  }
  ledger_ = nullptr;
}

void ResourceLedger::Txn::Commit(size_t index, StreamId stream) {
  if (ledger_ == nullptr || index >= items_.size() || committed_[index]) {
    return;
  }
  committed_[index] = true;
  const ReserveItem& item = items_[index];
  StreamHold hold;
  hold.msu = node_;
  hold.disk = item.disk;
  hold.rate = item.rate;
  hold.space = item.space;
  hold.cache = item.cache;
  hold.epoch = epoch_;
  ledger_->holds_[stream] = std::move(hold);
  auto it = ledger_->msus_.find(node_);
  if (it != ledger_->msus_.end() && it->second.epoch == epoch_) {
    if (item.disk == kSharedDisk) {
      ++it->second.shared_streams;
    } else {
      ++it->second.disks[static_cast<size_t>(item.disk)].streams;
    }
  }
}

void ResourceLedger::Txn::CommitNext(StreamId stream) {
  for (size_t index = 0; index < committed_.size(); ++index) {
    if (!committed_[index]) {
      Commit(index, stream);
      return;
    }
  }
}

// ---- ResourceLedger ----

void ResourceLedger::RegisterMsu(const std::string& node, int disk_count,
                                 Bytes free_space, DataRate nic_budget,
                                 Bytes cache_memory) {
  MsuAccount& account = msus_[node];
  account.node = node;
  account.up = true;
  account.disk_count = disk_count;
  account.free_space = free_space;
  account.nic_budget = nic_budget;
  account.cache_memory = cache_memory;
  account.cache_used = Bytes(0);
  account.shared_load = DataRate();
  account.shared_streams = 0;
  account.disks.assign(static_cast<size_t>(disk_count), DiskAccount());
  ++account.epoch;
  // Holds from before the re-registration are stale: the MSU reported its
  // real capacity afresh, so refunding them later must not touch it.
  for (auto it = holds_.begin(); it != holds_.end();) {
    if (it->second.msu == node && it->second.epoch != account.epoch) {
      it = holds_.erase(it);
    } else {
      ++it;
    }
  }
  // Likewise replication holds touching this MSU: the crashed end's copy is
  // gone, and the Coordinator separately aborts the op itself.
  for (auto it = repl_holds_.begin(); it != repl_holds_.end();) {
    auto& ends = it->second;
    for (auto end = ends.begin(); end != ends.end();) {
      if (end->msu == node && end->epoch != account.epoch) {
        end = ends.erase(end);
      } else {
        ++end;
      }
    }
    it = ends.empty() ? repl_holds_.erase(it) : std::next(it);
  }
}

void ResourceLedger::ReattachMsu(const std::string& node, int disk_count,
                                 Bytes free_space, DataRate nic_budget,
                                 Bytes cache_memory) {
  auto it = msus_.find(node);
  if (it == msus_.end() || it->second.disk_count != disk_count) {
    RegisterMsu(node, disk_count, free_space, nic_budget, cache_memory);
    return;
  }
  // Keep the account's balances: the debits for the MSU's still-running
  // streams are already reflected there, while the MSU's own free-space
  // report would double-count recording estimates not yet written to disk.
  it->second.up = true;
  it->second.nic_budget = nic_budget;
  it->second.cache_memory = cache_memory;
}

void ResourceLedger::MarkDown(const std::string& node) {
  auto it = msus_.find(node);
  if (it != msus_.end()) {
    it->second.up = false;
  }
}

bool ResourceLedger::IsUp(const std::string& node) const {
  auto it = msus_.find(node);
  return it != msus_.end() && it->second.up;
}

const MsuAccount* ResourceLedger::Find(const std::string& node) const {
  auto it = msus_.find(node);
  return it == msus_.end() ? nullptr : &it->second;
}

DataRate ResourceLedger::DiskLoad(const std::string& node, int disk) const {
  auto it = msus_.find(node);
  if (it == msus_.end() || static_cast<size_t>(disk) >= it->second.disks.size()) {
    return DataRate();
  }
  return it->second.disks[static_cast<size_t>(disk)].load;
}

Bytes ResourceLedger::FreeSpace(const std::string& node) const {
  auto it = msus_.find(node);
  return it == msus_.end() ? Bytes(0) : it->second.free_space;
}

Result<ResourceLedger::Txn> ResourceLedger::Reserve(const std::string& node,
                                                    std::vector<ReserveItem> items) {
  auto it = msus_.find(node);
  if (it == msus_.end() || !it->second.up) {
    return UnavailableError("ledger: MSU unavailable: " + node);
  }
  MsuAccount& account = it->second;
  Bytes cache_wanted;
  for (const ReserveItem& item : items) {
    if (item.disk == kSharedDisk) {
      cache_wanted += item.cache;
      continue;
    }
    if (item.disk < 0 || static_cast<size_t>(item.disk) >= account.disks.size()) {
      return InvalidArgumentError("ledger: bad disk index on " + node);
    }
  }
  if (account.cache_used + cache_wanted > account.cache_memory) {
    return ResourceExhaustedError("ledger: cache memory exhausted on " + node);
  }
  for (const ReserveItem& item : items) {
    if (item.disk == kSharedDisk) {
      account.shared_load = account.shared_load + item.rate;
      account.cache_used += item.cache;
      continue;
    }
    DiskAccount& disk = account.disks[static_cast<size_t>(item.disk)];
    disk.load = disk.load + item.rate;
    account.free_space -= item.space;
  }
  return Txn(this, node, account.epoch, std::move(items));
}

bool ResourceLedger::Release(StreamId stream, Bytes space_used) {
  auto it = holds_.find(stream);
  if (it == holds_.end()) {
    return false;
  }
  StreamHold hold = std::move(it->second);
  holds_.erase(it);
  Bytes refund = hold.space - space_used;
  if (refund < Bytes(0)) {
    refund = Bytes(0);  // recording overran its estimate; nothing to return
  }
  auto msu_it = msus_.find(hold.msu);
  if (msu_it != msus_.end() && msu_it->second.epoch == hold.epoch) {
    MsuAccount& account = msu_it->second;
    if (hold.disk == kSharedDisk) {
      account.shared_load = account.shared_load - hold.rate;
      if (account.shared_load < DataRate()) {
        account.shared_load = DataRate();
      }
      account.cache_used -= hold.cache;
      if (account.cache_used < Bytes(0)) {
        account.cache_used = Bytes(0);
      }
      --account.shared_streams;
      return true;
    }
    DiskAccount& disk = account.disks[static_cast<size_t>(hold.disk)];
    disk.load = disk.load - hold.rate;
    if (disk.load < DataRate()) {
      disk.load = DataRate();
    }
    --disk.streams;
    account.free_space += refund;
  }
  return true;
}

Status ResourceLedger::AddReplication(int64_t op, const std::string& node, int disk,
                                      DataRate rate, Bytes space) {
  auto it = msus_.find(node);
  if (it == msus_.end() || !it->second.up) {
    return UnavailableError("ledger: MSU unavailable: " + node);
  }
  MsuAccount& account = it->second;
  if (disk < 0 || static_cast<size_t>(disk) >= account.disks.size()) {
    return InvalidArgumentError("ledger: bad disk index on " + node);
  }
  std::vector<ReplicationHold>& ends = repl_holds_[op];
  for (const ReplicationHold& end : ends) {
    if (end.msu == node) {
      return InvalidArgumentError("ledger: duplicate replication hold on " + node);
    }
  }
  account.disks[static_cast<size_t>(disk)].replication_io =
      account.disks[static_cast<size_t>(disk)].replication_io + rate;
  account.free_space -= space;
  ReplicationHold hold;
  hold.msu = node;
  hold.disk = disk;
  hold.rate = rate;
  hold.space = space;
  hold.epoch = account.epoch;
  ends.push_back(std::move(hold));
  return OkStatus();
}

bool ResourceLedger::ReleaseReplication(int64_t op, bool keep_space) {
  auto it = repl_holds_.find(op);
  if (it == repl_holds_.end()) {
    return false;
  }
  for (const ReplicationHold& end : it->second) {
    auto msu_it = msus_.find(end.msu);
    if (msu_it == msus_.end() || msu_it->second.epoch != end.epoch) {
      continue;  // the account re-registered; its numbers are fresh
    }
    MsuAccount& account = msu_it->second;
    DiskAccount& disk = account.disks[static_cast<size_t>(end.disk)];
    disk.replication_io = disk.replication_io - end.rate;
    if (disk.replication_io < DataRate()) {
      disk.replication_io = DataRate();
    }
    if (!keep_space) {
      account.free_space += end.space;
    }
  }
  repl_holds_.erase(it);
  return true;
}

void ResourceLedger::ForEachReplication(
    const std::function<void(int64_t, const ReplicationHoldInfo&)>& fn) const {
  for (const auto& [op, ends] : repl_holds_) {
    for (const ReplicationHold& end : ends) {
      auto msu_it = msus_.find(end.msu);
      ReplicationHoldInfo info;
      info.msu = end.msu;
      info.disk = end.disk;
      info.rate = end.rate;
      info.space = end.space;
      info.current_epoch = msu_it != msus_.end() && msu_it->second.epoch == end.epoch;
      fn(op, info);
    }
  }
}

void ResourceLedger::Refund(const std::string& node, int64_t epoch, int disk,
                            DataRate rate, Bytes space, Bytes cache) {
  auto it = msus_.find(node);
  if (it == msus_.end() || it->second.epoch != epoch) {
    return;
  }
  MsuAccount& account = it->second;
  if (disk == kSharedDisk) {
    account.shared_load = account.shared_load - rate;
    if (account.shared_load < DataRate()) {
      account.shared_load = DataRate();
    }
    account.cache_used -= cache;
    if (account.cache_used < Bytes(0)) {
      account.cache_used = Bytes(0);
    }
    return;
  }
  DiskAccount& account_disk = account.disks[static_cast<size_t>(disk)];
  account_disk.load = account_disk.load - rate;
  if (account_disk.load < DataRate()) {
    account_disk.load = DataRate();
  }
  account.free_space += space;
}

Status ResourceLedger::CheckInvariants() const {
  for (const auto& [name, account] : msus_) {
    if (static_cast<size_t>(account.disk_count) != account.disks.size()) {
      return InternalError("ledger: " + name + " disk vector does not match disk_count");
    }
    if (account.free_space < Bytes(0)) {
      return InternalError("ledger: " + name + " free space is negative");
    }
    if (account.shared_load < DataRate()) {
      return InternalError("ledger: " + name + " shared load is negative");
    }
    if (account.cache_used < Bytes(0)) {
      return InternalError("ledger: " + name + " cache usage is negative");
    }
    if (account.cache_used > account.cache_memory) {
      return InternalError("ledger: " + name + " cache usage exceeds its budget");
    }
    if (account.shared_streams < 0) {
      return InternalError("ledger: " + name + " shared stream count is negative");
    }
    {
      DataRate shared_committed;
      Bytes cache_committed;
      int shared_held = 0;
      for (const auto& [stream, hold] : holds_) {
        if (hold.msu == name && hold.epoch == account.epoch && hold.disk == kSharedDisk) {
          shared_committed = shared_committed + hold.rate;
          cache_committed += hold.cache;
          ++shared_held;
        }
      }
      if (shared_held != account.shared_streams) {
        return InternalError("ledger: " + name + " counts " +
                             std::to_string(account.shared_streams) +
                             " shared streams but holds " + std::to_string(shared_held));
      }
      if (shared_committed > account.shared_load) {
        return InternalError("ledger: " + name +
                             " committed shared bandwidth exceeds shared load");
      }
      if (cache_committed > account.cache_used) {
        return InternalError("ledger: " + name +
                             " committed cache bytes exceed cache usage");
      }
    }
    for (size_t d = 0; d < account.disks.size(); ++d) {
      const DiskAccount& disk = account.disks[d];
      if (disk.load < DataRate()) {
        return InternalError("ledger: " + name + " disk " + std::to_string(d) +
                             " load is negative");
      }
      if (disk.streams < 0) {
        return InternalError("ledger: " + name + " disk " + std::to_string(d) +
                             " stream count is negative");
      }
      // Committed holds must be covered by the reserved load; an in-flight
      // (uncommitted) transaction only ever adds load on top.
      DataRate committed;
      int held_streams = 0;
      for (const auto& [stream, hold] : holds_) {
        if (hold.msu == name && hold.epoch == account.epoch &&
            hold.disk == static_cast<int>(d)) {
          committed = committed + hold.rate;
          ++held_streams;
        }
      }
      if (held_streams != disk.streams) {
        return InternalError("ledger: " + name + " disk " + std::to_string(d) + " counts " +
                             std::to_string(disk.streams) + " streams but holds " +
                             std::to_string(held_streams));
      }
      if (committed > disk.load) {
        return InternalError("ledger: " + name + " disk " + std::to_string(d) +
                             " committed bandwidth exceeds reserved load");
      }
      if (disk.replication_io < DataRate()) {
        return InternalError("ledger: " + name + " disk " + std::to_string(d) +
                             " replication bandwidth is negative");
      }
      // Every unit of replication_io is backed by a current-epoch copy hold.
      DataRate repl_held;
      for (const auto& [op, ends] : repl_holds_) {
        for (const ReplicationHold& end : ends) {
          if (end.msu == name && end.epoch == account.epoch &&
              end.disk == static_cast<int>(d)) {
            repl_held = repl_held + end.rate;
          }
        }
      }
      if (repl_held != disk.replication_io) {
        return InternalError("ledger: " + name + " disk " + std::to_string(d) +
                             " replication bandwidth does not match its copy holds");
      }
    }
  }
  for (const auto& [op, ends] : repl_holds_) {
    if (ends.empty()) {
      return InternalError("ledger: copy op " + std::to_string(op) + " holds nothing");
    }
    for (const ReplicationHold& end : ends) {
      auto it = msus_.find(end.msu);
      if (it == msus_.end()) {
        return InternalError("ledger: copy op " + std::to_string(op) +
                             " references unknown MSU " + end.msu);
      }
      if (end.epoch > it->second.epoch) {
        return InternalError("ledger: copy op " + std::to_string(op) +
                             " is from a future epoch");
      }
      if (end.rate < DataRate() || end.space < Bytes(0)) {
        return InternalError("ledger: copy op " + std::to_string(op) +
                             " has a negative balance");
      }
    }
  }
  for (const auto& [stream, hold] : holds_) {
    auto it = msus_.find(hold.msu);
    if (it == msus_.end()) {
      return InternalError("ledger: hold for stream " + std::to_string(stream) +
                           " references unknown MSU " + hold.msu);
    }
    if (hold.epoch > it->second.epoch) {
      return InternalError("ledger: hold for stream " + std::to_string(stream) +
                           " is from a future epoch");
    }
    if (hold.epoch == it->second.epoch && hold.disk != kSharedDisk &&
        (hold.disk < 0 || static_cast<size_t>(hold.disk) >= it->second.disks.size())) {
      return InternalError("ledger: hold for stream " + std::to_string(stream) +
                           " references bad disk " + std::to_string(hold.disk));
    }
    if (hold.rate < DataRate() || hold.space < Bytes(0) || hold.cache < Bytes(0)) {
      return InternalError("ledger: hold for stream " + std::to_string(stream) +
                           " has a negative balance");
    }
  }
  return OkStatus();
}

namespace {

ResourceLedger::HoldInfo MakeHoldInfo(const std::string& msu, int disk, DataRate rate,
                                      Bytes space, Bytes cache, bool current_epoch) {
  ResourceLedger::HoldInfo info;
  info.msu = msu;
  info.disk = disk;
  info.rate = rate;
  info.space = space;
  info.cache = cache;
  info.current_epoch = current_epoch;
  return info;
}

}  // namespace

std::optional<ResourceLedger::HoldInfo> ResourceLedger::FindHold(StreamId stream) const {
  auto it = holds_.find(stream);
  if (it == holds_.end()) {
    return std::nullopt;
  }
  const StreamHold& hold = it->second;
  auto msu_it = msus_.find(hold.msu);
  const bool current = msu_it != msus_.end() && msu_it->second.epoch == hold.epoch;
  return MakeHoldInfo(hold.msu, hold.disk, hold.rate, hold.space, hold.cache, current);
}

void ResourceLedger::ForEachHold(
    const std::function<void(StreamId, const HoldInfo&)>& fn) const {
  for (const auto& [stream, hold] : holds_) {
    auto msu_it = msus_.find(hold.msu);
    const bool current = msu_it != msus_.end() && msu_it->second.epoch == hold.epoch;
    fn(stream, MakeHoldInfo(hold.msu, hold.disk, hold.rate, hold.space, hold.cache, current));
  }
}

DataRate ResourceLedger::TotalReserved() const {
  DataRate total;
  for (const auto& [name, account] : msus_) {
    total = total + account.TotalLoad();
  }
  return total;
}

}  // namespace calliope
