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
//   Commit()   transfers one component's reservation into a per-stream hold.
//   Release()  refunds a stream's hold exactly once; recordings pass the
//              bytes actually written so only the over-estimate is returned.
//
// Accounts carry an epoch that bumps on (re-)registration; stale transactions
// and holds from before a re-registration never touch the fresh numbers.
#ifndef CALLIOPE_SRC_PLACE_LEDGER_H_
#define CALLIOPE_SRC_PLACE_LEDGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/net/message.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace calliope {

// NOTE: these structs declare constructors so they are not aggregates; GCC 12
// miscompiles aggregate init/copies inside coroutine bodies (see src/sim/co.h).
struct DiskAccount {
  DiskAccount() = default;

  DataRate load;    // reserved bandwidth
  int streams = 0;  // committed streams served from this disk
  // Bandwidth held by background replica copies (rebalancing, DESIGN §5.8).
  // Placement counts it as load — live admissions route around a copy-busy
  // disk — but it is tracked separately so the planner can preempt it.
  DataRate replication_io;
};

struct MsuAccount {
  MsuAccount() = default;

  std::string node;
  bool up = false;
  int disk_count = 0;
  Bytes free_space;
  // Outbound NIC capacity (ROADMAP "network-path admission"). Zero means
  // unlimited; placement rejects groups whose aggregate rate would push
  // NicLoad() past a nonzero budget even when individual disks have room.
  DataRate nic_budget;
  // Interval/prefix cache budget (stream sharing, DESIGN §5.6). Zero means
  // the MSU has no page cache; cache-served viewers reserve bytes here
  // instead of disk bandwidth.
  Bytes cache_memory;
  Bytes cache_used;
  // Rate reserved by cache-served viewers: consumes the NIC but no disk.
  DataRate shared_load;
  int shared_streams = 0;
  std::vector<DiskAccount> disks;
  int64_t epoch = 0;  // bumps on every (re-)registration

  DataRate TotalLoad() const;
  // Sum of the disks' replication_io: bandwidth serving background copies.
  DataRate ReplicationLoad() const;
  // TotalLoad() plus the cache-served viewers' shared_load plus replication
  // traffic: what the outbound NIC actually carries, checked against
  // nic_budget.
  DataRate NicLoad() const;
  int TotalStreams() const;
};

class ResourceLedger {
 public:
  // Disk index marking a cache-served (shared) reservation: the item's rate
  // debits shared_load (NIC only) and its cache bytes debit cache_used; no
  // disk bandwidth or space is touched.
  static constexpr int kSharedDisk = -1;

  // One component's share of a group reservation.
  struct ReserveItem {
    ReserveItem() = default;
    ReserveItem(int disk_index, DataRate bandwidth, Bytes space_bytes)
        : disk(disk_index), rate(bandwidth), space(space_bytes) {}
    ReserveItem(int disk_index, DataRate bandwidth, Bytes space_bytes, Bytes cache_bytes)
        : disk(disk_index), rate(bandwidth), space(space_bytes), cache(cache_bytes) {}

    int disk = 0;
    DataRate rate;
    Bytes space;
    Bytes cache;  // interval-cache bytes; only meaningful with disk == kSharedDisk
  };

  // A group reservation in flight. Move-only; uncommitted items are refunded
  // when the transaction is destroyed (e.g. the MSU refused the stream).
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
    // Converts item `index` into a per-stream hold; `stream`'s bandwidth and
    // space now stay debited until Release(stream).
    void Commit(size_t index, StreamId stream);
    // Commit() of the first item not yet committed: callers that commit in
    // reservation order need not track indices.
    void CommitNext(StreamId stream);

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

  // Debits every item's bandwidth (and space) on `node` at once. Fails with
  // kUnavailable if the MSU is unknown or down, kInvalidArgument on a bad
  // disk index. Budget checks are the placement policy's job, not ours —
  // except the cache budget, which no policy sees: a kSharedDisk item whose
  // cache bytes would push cache_used past cache_memory fails with
  // kResourceExhausted.
  Result<Txn> Reserve(const std::string& node, std::vector<ReserveItem> items);

  // Refunds `stream`'s hold: bandwidth in full, space minus `space_used`.
  // Returns false (and changes nothing) if the stream holds nothing — calling
  // twice is safe, the second call is a no-op.
  bool Release(StreamId stream, Bytes space_used = Bytes());

  // ---- introspection for tests and benches ----
  DataRate TotalReserved() const;  // sum of every disk's reserved bandwidth
  size_t outstanding_holds() const { return holds_.size(); }

  // One committed stream hold, exposed for HA snapshots and tests.
  struct HoldInfo {
    HoldInfo() = default;

    std::string msu;
    int disk = 0;  // kSharedDisk for cache-served holds
    DataRate rate;
    Bytes space;
    Bytes cache;
    bool current_epoch = false;  // matches the account's registration epoch
  };
  std::optional<HoldInfo> FindHold(StreamId stream) const;
  void ForEachHold(const std::function<void(StreamId, const HoldInfo&)>& fn) const;

  // ---- background replica copies (rebalancing, DESIGN §5.8) ----
  //
  // A copy op holds replication_io bandwidth on the source's and the target's
  // disks (debiting each NIC through NicLoad) plus the replica's estimated
  // space on the target. Holds are epoch-stamped like stream holds: an MSU
  // re-registration silently invalidates them.

  // Adds one end of copy op `op` (at most one hold per (op, msu) pair).
  // Fails with kUnavailable if the MSU is unknown or down, kInvalidArgument
  // on a bad disk index or a duplicate hold.
  Status AddReplication(int64_t op, const std::string& node, int disk, DataRate rate,
                        Bytes space = Bytes());
  // Releases every hold of `op`. With keep_space (the replica committed) the
  // target's space stays debited; otherwise it is refunded. Safe to call for
  // unknown ops (no-op, returns false).
  bool ReleaseReplication(int64_t op, bool keep_space = false);
  size_t outstanding_replications() const { return repl_holds_.size(); }

  struct ReplicationHoldInfo {
    ReplicationHoldInfo() = default;

    std::string msu;
    int disk = 0;
    DataRate rate;
    Bytes space;
    bool current_epoch = false;
  };
  void ForEachReplication(
      const std::function<void(int64_t, const ReplicationHoldInfo&)>& fn) const;

  // Structural consistency check for tests and the chaos harness: no negative
  // balances, every current-epoch hold referencing a real account and disk,
  // per-disk stream counts equal to the number of current-epoch holds, and
  // per-disk committed bandwidth no larger than the reserved load (in-flight
  // transactions account for the difference). Returns the first violation.
  Status CheckInvariants() const;

 private:
  struct StreamHold {
    StreamHold() = default;

    std::string msu;
    int disk = 0;
    DataRate rate;
    Bytes space;
    Bytes cache;
    int64_t epoch = 0;
  };

  struct ReplicationHold {
    ReplicationHold() = default;

    std::string msu;
    int disk = 0;
    DataRate rate;
    Bytes space;
    int64_t epoch = 0;
  };

  // Refunds one item to its account; no-op if the account re-registered.
  void Refund(const std::string& node, int64_t epoch, int disk, DataRate rate,
              Bytes space, Bytes cache);

  std::map<std::string, MsuAccount> msus_;
  std::map<StreamId, StreamHold> holds_;
  // Replica-copy holds: op id -> the op's per-MSU holds (source + target).
  std::map<int64_t, std::vector<ReplicationHold>> repl_holds_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_PLACE_LEDGER_H_
