// ResourceLedger: the single owner of per-MSU / per-disk bandwidth and disk
// space accounting (§2.2: "As the Coordinator assigns resources to clients,
// it keeps track of load by processor and disk").
//
// All admission state changes go through explicit transactions:
//
//   Reserve()  debits a whole stream group's bandwidth and space atomically,
//              before any MSU is contacted, so racing admissions never see
//              stale load numbers. The returned Txn rolls the debit back in
//              its destructor unless committed.
//   Commit()   transfers one component's reservation into a hold.
//   Release()  refunds a hold exactly once; recordings pass the bytes
//              actually written so only the over-estimate is returned.
//
// There is one kind of hold: {msu, disk or none, rate, space, cache, epoch}.
// A disk stream, a cache-served viewer (no disk) and each end of a
// background replica copy all charge and refund the same way.
//
// Accounts carry an epoch that bumps on (re-)registration; stale transactions
// and holds from before a re-registration never touch the fresh numbers.
#ifndef CALLIOPE_SRC_PLACE_LEDGER_H_
#define CALLIOPE_SRC_PLACE_LEDGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/units.h"

namespace calliope {

// NOTE: these structs declare constructors so they are not aggregates; GCC 12
// miscompiles aggregate init/copies inside coroutine bodies (see src/sim/co.h).
struct DiskAccount {
  DiskAccount() = default;

  // Reserved bandwidth: streams served from this disk and background replica
  // copies reading or writing it (DESIGN §5.8). Placement counts all of it.
  DataRate load;
  int streams = 0;  // committed holds on this disk, copy ends included

  bool operator==(const DiskAccount&) const = default;
};

struct MsuAccount {
  MsuAccount() = default;

  std::string node;
  bool up = false;
  int disk_count = 0;
  Bytes free_space;
  // Outbound NIC capacity (ROADMAP "network-path admission"). Zero means
  // unlimited; placement rejects groups whose aggregate rate would push
  // nic_load past a nonzero budget even when individual disks have room.
  DataRate nic_budget;
  // Every reservation's rate, with or without a disk: what the outbound NIC
  // carries, checked against nic_budget.
  DataRate nic_load;
  // Interval/prefix cache budget (stream sharing, DESIGN §5.6). Zero means
  // the MSU has no page cache; cache-served viewers reserve bytes here
  // instead of disk bandwidth.
  Bytes cache_memory;
  Bytes cache_used;
  std::vector<DiskAccount> disks;
  int64_t epoch = 0;  // bumps on every (re-)registration

  DataRate TotalLoad() const;  // sum of the disks' load

  bool operator==(const MsuAccount&) const = default;
};

class ResourceLedger {
 public:
  // Disk index of a reservation that reads no disk: a cache-served viewer
  // (DESIGN §5.6) charges the NIC and the cache budget only.
  static constexpr int kNoDisk = -1;

  // What a hold pays for. A stream's hold is keyed by its StreamId (always
  // positive); the two ends of background copy op `op` (op >= 1) are keyed
  // by CopyHold(op, ...), which maps them onto negative ids.
  using HoldId = int64_t;
  enum class CopyEnd { kSource, kTarget };
  static constexpr HoldId CopyHold(int64_t op, CopyEnd end) {
    return -2 * op - (end == CopyEnd::kTarget ? 1 : 0);
  }

  // One component's share of a reservation: a stream, or one end of a copy.
  struct ReserveItem {
    ReserveItem() = default;
    ReserveItem(int disk_index, DataRate bandwidth, Bytes space_bytes,
                Bytes cache_bytes = Bytes())
        : disk(disk_index), rate(bandwidth), space(space_bytes), cache(cache_bytes) {}

    int disk = 0;  // kNoDisk: charges no disk bandwidth
    DataRate rate;
    Bytes space;
    Bytes cache;  // interval-cache bytes

    bool operator==(const ReserveItem&) const = default;
  };

  // A reservation in flight. Move-only; uncommitted items are refunded when
  // the transaction is destroyed (e.g. the MSU refused the stream).
  class Txn {
   public:
    Txn() = default;
    Txn(Txn&& other) noexcept;
    Txn& operator=(Txn&& other) noexcept;
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;
    ~Txn();

    bool valid() const { return ledger_ != nullptr; }
    const std::string& msu() const { return node_; }
    // Converts item `index` into hold `id`: its bandwidth, space and cache
    // now stay debited until Release(id).
    void Commit(size_t index, HoldId id);
    // Commit() of the first item not yet committed: callers that commit in
    // reservation order need not track indices.
    void CommitNext(HoldId id);

   private:
    friend class ResourceLedger;
    Txn(ResourceLedger* ledger, std::string node, int64_t epoch,
        std::vector<ReserveItem> items);
    void Rollback();

    ResourceLedger* ledger_ = nullptr;
    std::string node_;
    int64_t epoch_ = 0;
    std::vector<ReserveItem> items_;
    std::vector<bool> committed_;
  };

  // Registers (or re-registers) an MSU with fresh capacity numbers. Resets
  // the account and invalidates holds that predate the registration.
  void RegisterMsu(const std::string& node, int disk_count, Bytes free_space,
                   DataRate nic_budget = DataRate(), Bytes cache_memory = Bytes());
  // Warm re-registration: the MSU never stopped serving, only its control
  // connection moved (Coordinator failover). Marks the account up again but
  // keeps its balances, epoch and holds; falls back to RegisterMsu when the
  // account is unknown or its shape changed.
  void ReattachMsu(const std::string& node, int disk_count, Bytes free_space,
                   DataRate nic_budget = DataRate(), Bytes cache_memory = Bytes());
  void MarkDown(const std::string& node);

  bool IsUp(const std::string& node) const;
  const MsuAccount* Find(const std::string& node) const;
  const std::map<std::string, MsuAccount>& msus() const { return msus_; }
  DataRate DiskLoad(const std::string& node, int disk) const;
  Bytes FreeSpace(const std::string& node) const;

  // Debits every item on `node` at once. Fails with kUnavailable if the MSU
  // is unknown or down, kInvalidArgument on a bad disk index. Budget checks
  // are the placement policy's job, not ours — except the cache budget, which
  // no policy sees: items whose cache bytes would push cache_used past
  // cache_memory fail with kResourceExhausted.
  Result<Txn> Reserve(const std::string& node, std::vector<ReserveItem> items);

  // Refunds hold `id`: bandwidth and cache in full, space minus `space_used`
  // (a recording's bytes written, an installed replica's whole size).
  // Returns false (and changes nothing) if `id` holds nothing — calling twice
  // is safe, the second call is a no-op.
  bool Release(HoldId id, Bytes space_used = Bytes());

  // Equal balances: every account field but its registration epoch, and
  // every hold by id, MSU, item and whether it still charges its account.
  // Raw epochs depend on the registration history (an HA standby that joined
  // by snapshot registered each MSU once), so they are not compared.
  bool operator==(const ResourceLedger& other) const;

  // ---- introspection for tests and benches ----
  DataRate TotalReserved() const;  // sum of every disk's reserved bandwidth
  size_t outstanding_holds() const { return holds_.size(); }

  struct Hold {
    Hold() = default;

    std::string msu;
    ReserveItem item;
    int64_t epoch = 0;  // the account's registration epoch when committed
  };
  // False for a hold committed under an earlier registration of its MSU:
  // it no longer touches the account's numbers.
  bool IsCurrent(const Hold& hold) const;
  // Every hold in HoldId order (copy ends first), for HA snapshots and tests.
  void ForEachHold(const std::function<void(HoldId, const Hold&)>& fn) const;

  // Structural consistency check for tests and the chaos harness: no negative
  // balances; every hold on a known account, from no future epoch, on a real
  // disk; per-disk hold counts equal to the current-epoch holds there; and
  // committed disk bandwidth, NIC bandwidth and cache bytes no larger than
  // the reserved balances (in-flight transactions account for the
  // difference). Returns the first violation.
  Status CheckInvariants() const;

 private:
  // Charges (sign +1) or refunds (sign -1) one item on `account`: its rate
  // on the NIC and, if it has a disk, on that disk; its space against
  // free_space; its cache bytes against cache_used. A refund never drives
  // bandwidth or cache usage below zero.
  static void Charge(MsuAccount& account, const ReserveItem& item, int sign);
  // The account `hold` still charges, or nullptr if it re-registered since.
  MsuAccount* CurrentAccount(const std::string& node, int64_t epoch);

  std::map<std::string, MsuAccount> msus_;
  std::map<HoldId, Hold> holds_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_PLACE_LEDGER_H_
