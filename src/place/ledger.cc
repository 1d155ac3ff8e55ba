#include "src/place/ledger.h"

#include <algorithm>
#include <utility>

namespace calliope {

DataRate MsuAccount::TotalLoad() const {
  DataRate total;
  for (const DiskAccount& disk : disks) {
    total = total + disk.load;
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
  if (MsuAccount* account = ledger_->CurrentAccount(node_, epoch_)) {
    for (size_t i = 0; i < items_.size(); ++i) {
      if (!committed_[i]) {
        Charge(*account, items_[i], -1);
      }
    }
  }
  ledger_ = nullptr;
}

void ResourceLedger::Txn::Commit(size_t index, HoldId id) {
  if (ledger_ == nullptr || index >= items_.size() || committed_[index]) {
    return;
  }
  committed_[index] = true;
  Hold& hold = ledger_->holds_[id];
  hold.msu = node_;
  hold.item = items_[index];
  hold.epoch = epoch_;
  MsuAccount* account = ledger_->CurrentAccount(node_, epoch_);
  if (account != nullptr && hold.item.disk != kNoDisk) {
    ++account->disks[static_cast<size_t>(hold.item.disk)].streams;
  }
}

void ResourceLedger::Txn::CommitNext(HoldId id) {
  for (size_t index = 0; index < committed_.size(); ++index) {
    if (!committed_[index]) {
      Commit(index, id);
      return;
    }
  }
}

// ---- ResourceLedger ----

void ResourceLedger::Charge(MsuAccount& account, const ReserveItem& item, int sign) {
  const auto move = [sign](auto& balance, auto amount) {
    balance = std::max(balance + amount * sign, decltype(amount)());
  };
  move(account.nic_load, item.rate);
  move(account.cache_used, item.cache);
  account.free_space -= item.space * sign;
  if (item.disk != kNoDisk) {
    DiskAccount& disk = account.disks[static_cast<size_t>(item.disk)];
    move(disk.load, item.rate);
  }
}

MsuAccount* ResourceLedger::CurrentAccount(const std::string& node, int64_t epoch) {
  auto it = msus_.find(node);
  return it != msus_.end() && it->second.epoch == epoch ? &it->second : nullptr;
}

void ResourceLedger::RegisterMsu(const std::string& node, int disk_count,
                                 Bytes free_space, DataRate nic_budget,
                                 Bytes cache_memory) {
  MsuAccount& account = msus_[node];
  account.node = node;
  account.up = true;
  account.disk_count = disk_count;
  account.free_space = free_space;
  account.nic_budget = nic_budget;
  account.nic_load = DataRate();
  account.cache_memory = cache_memory;
  account.cache_used = Bytes(0);
  account.disks.assign(static_cast<size_t>(disk_count), DiskAccount());
  ++account.epoch;
  // Holds from before the re-registration are stale: the MSU reported its
  // real capacity afresh, so refunding them later must not touch it. A copy
  // end dies here too; the Coordinator separately aborts the copy itself.
  std::erase_if(holds_, [&](const auto& entry) {
    return entry.second.msu == node && entry.second.epoch != account.epoch;
  });
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
    cache_wanted += item.cache;
    if (item.disk != kNoDisk &&
        (item.disk < 0 || static_cast<size_t>(item.disk) >= account.disks.size())) {
      return InvalidArgumentError("ledger: bad disk index on " + node);
    }
  }
  if (account.cache_used + cache_wanted > account.cache_memory) {
    return ResourceExhaustedError("ledger: cache memory exhausted on " + node);
  }
  for (const ReserveItem& item : items) {
    Charge(account, item, +1);
  }
  return Txn(this, node, account.epoch, std::move(items));
}

bool ResourceLedger::Release(HoldId id, Bytes space_used) {
  auto it = holds_.find(id);
  if (it == holds_.end()) {
    return false;
  }
  const Hold hold = std::move(it->second);
  holds_.erase(it);
  if (MsuAccount* account = CurrentAccount(hold.msu, hold.epoch)) {
    ReserveItem refund = hold.item;
    // A recording that overran its estimate has nothing to return.
    refund.space = std::max(refund.space - space_used, Bytes(0));
    Charge(*account, refund, -1);
    if (refund.disk != kNoDisk) {
      --account->disks[static_cast<size_t>(refund.disk)].streams;
    }
  }
  return true;
}

bool ResourceLedger::IsCurrent(const Hold& hold) const {
  auto it = msus_.find(hold.msu);
  return it != msus_.end() && it->second.epoch == hold.epoch;
}

void ResourceLedger::ForEachHold(const std::function<void(HoldId, const Hold&)>& fn) const {
  for (const auto& [id, hold] : holds_) {
    fn(id, hold);
  }
}

Status ResourceLedger::CheckInvariants() const {
  // What the current-epoch holds commit, per account: one pass over the map.
  struct Committed {
    DataRate nic;
    Bytes cache;
    std::vector<DataRate> disk_load;
    std::vector<int> disk_holds;
  };
  std::map<std::string, Committed> committed;
  for (const auto& [id, hold] : holds_) {
    const std::string what = "ledger: hold " + std::to_string(id);
    auto it = msus_.find(hold.msu);
    if (it == msus_.end()) {
      return InternalError(what + " references unknown MSU " + hold.msu);
    }
    const MsuAccount& account = it->second;
    if (hold.epoch > account.epoch) {
      return InternalError(what + " is from a future epoch");
    }
    const ReserveItem& item = hold.item;
    if (item.rate < DataRate() || item.space < Bytes(0) || item.cache < Bytes(0)) {
      return InternalError(what + " has a negative balance");
    }
    if (hold.epoch != account.epoch) {
      continue;
    }
    if (item.disk != kNoDisk &&
        (item.disk < 0 || static_cast<size_t>(item.disk) >= account.disks.size())) {
      return InternalError(what + " references bad disk " + std::to_string(item.disk));
    }
    Committed& sum = committed[hold.msu];
    sum.disk_load.resize(account.disks.size());
    sum.disk_holds.resize(account.disks.size());
    sum.nic = sum.nic + item.rate;
    sum.cache += item.cache;
    if (item.disk != kNoDisk) {
      const size_t d = static_cast<size_t>(item.disk);
      sum.disk_load[d] = sum.disk_load[d] + item.rate;
      ++sum.disk_holds[d];
    }
  }
  for (const auto& [name, account] : msus_) {
    const std::string what = "ledger: " + name;
    if (static_cast<size_t>(account.disk_count) != account.disks.size()) {
      return InternalError(what + " disk vector does not match disk_count");
    }
    if (account.free_space < Bytes(0)) {
      return InternalError(what + " free space is negative");
    }
    if (account.nic_load < DataRate()) {
      return InternalError(what + " NIC load is negative");
    }
    if (account.cache_used < Bytes(0)) {
      return InternalError(what + " cache usage is negative");
    }
    if (account.cache_used > account.cache_memory) {
      return InternalError(what + " cache usage exceeds its budget");
    }
    Committed sum = committed[name];
    sum.disk_load.resize(account.disks.size());
    sum.disk_holds.resize(account.disks.size());
    // Committed holds must be covered by the reserved balances; an in-flight
    // (uncommitted) transaction only ever adds on top.
    if (sum.nic > account.nic_load) {
      return InternalError(what + " committed bandwidth exceeds NIC load");
    }
    if (sum.cache > account.cache_used) {
      return InternalError(what + " committed cache bytes exceed cache usage");
    }
    for (size_t d = 0; d < account.disks.size(); ++d) {
      const DiskAccount& disk = account.disks[d];
      const std::string where = what + " disk " + std::to_string(d);
      if (disk.load < DataRate()) {
        return InternalError(where + " load is negative");
      }
      if (disk.streams != sum.disk_holds[d]) {
        return InternalError(where + " counts " + std::to_string(disk.streams) +
                             " streams but holds " + std::to_string(sum.disk_holds[d]));
      }
      if (sum.disk_load[d] > disk.load) {
        return InternalError(where + " committed bandwidth exceeds reserved load");
      }
    }
  }
  return OkStatus();
}

bool ResourceLedger::operator==(const ResourceLedger& other) const {
  const auto same_account = [](const auto& mine, const auto& theirs) {
    MsuAccount account = mine.second;
    account.epoch = theirs.second.epoch;
    return mine.first == theirs.first && account == theirs.second;
  };
  const auto same_hold = [&](const auto& mine, const auto& theirs) {
    return mine.first == theirs.first && mine.second.msu == theirs.second.msu &&
           mine.second.item == theirs.second.item &&
           IsCurrent(mine.second) == other.IsCurrent(theirs.second);
  };
  return std::ranges::equal(msus_, other.msus_, same_account) &&
         std::ranges::equal(holds_, other.holds_, same_hold);
}

DataRate ResourceLedger::TotalReserved() const {
  DataRate total;
  for (const auto& [name, account] : msus_) {
    total = total + account.TotalLoad();
  }
  return total;
}

}  // namespace calliope
