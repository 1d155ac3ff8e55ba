// Unit tests for the placement/admission subsystem: the ResourceLedger's
// transactional accounting and the pluggable placement policies (§2.2).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/place/ledger.h"
#include "src/place/policy.h"

namespace calliope {
namespace {

constexpr int64_t kMiB = 1 << 20;

ResourceLedger TwoMsuLedger() {
  ResourceLedger ledger;
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  ledger.RegisterMsu("msuB", 2, Bytes(100 * kMiB));
  return ledger;
}

PlacementSpec PlaySpec(DataRate rate, std::vector<PlacementCandidate> candidates) {
  PlacementSpec spec;
  spec.disk_budget = DataRate::MegabytesPerSec(2.0);
  ComponentSpec component;
  component.rate = rate;
  component.file_name = "movie.mpg";
  component.candidates = std::move(candidates);
  spec.components.push_back(std::move(component));
  return spec;
}

TEST(LedgerTest, ReserveCommitReleaseLifecycle) {
  ResourceLedger ledger = TwoMsuLedger();
  const DataRate rate = DataRate::MegabytesPerSec(0.5);

  auto txn = ledger.Reserve("msuA", {ResourceLedger::ReserveItem(0, rate, Bytes())});
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), rate);
  EXPECT_EQ(ledger.TotalReserved(), rate);

  txn->Commit(0, /*stream=*/7);
  EXPECT_EQ(ledger.outstanding_holds(), 1u);
  EXPECT_EQ(ledger.Find("msuA")->disks[0].streams, 1);
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();

  // Destroying the committed Txn must not refund the hold.
  { ResourceLedger::Txn moved = std::move(txn).value(); }
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), rate);

  EXPECT_TRUE(ledger.Release(7));
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), DataRate());
  EXPECT_EQ(ledger.outstanding_holds(), 0u);
  EXPECT_EQ(ledger.Find("msuA")->disks[0].streams, 0);

  // Exactly-once: the second release is a no-op.
  EXPECT_FALSE(ledger.Release(7));
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), DataRate());
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
}

TEST(LedgerTest, UncommittedTxnRollsBackOnDestruction) {
  ResourceLedger ledger = TwoMsuLedger();
  const DataRate rate = DataRate::MegabytesPerSec(0.5);
  {
    auto txn = ledger.Reserve(
        "msuA", {ResourceLedger::ReserveItem(0, rate, Bytes(10 * kMiB))});
    ASSERT_TRUE(txn.ok());
    EXPECT_EQ(ledger.DiskLoad("msuA", 0), rate);
    EXPECT_EQ(ledger.FreeSpace("msuA"), Bytes(90 * kMiB));
  }
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), DataRate());
  EXPECT_EQ(ledger.FreeSpace("msuA"), Bytes(100 * kMiB));
}

TEST(LedgerTest, PartialCommitRefundsOnlyUncommittedItems) {
  ResourceLedger ledger = TwoMsuLedger();
  const DataRate rate = DataRate::MegabytesPerSec(0.5);
  {
    auto txn = ledger.Reserve("msuA", {ResourceLedger::ReserveItem(0, rate, Bytes()),
                                       ResourceLedger::ReserveItem(1, rate, Bytes())});
    ASSERT_TRUE(txn.ok());
    txn->Commit(0, /*stream=*/1);
  }
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), rate);        // committed stream stays
  EXPECT_EQ(ledger.DiskLoad("msuA", 1), DataRate());  // uncommitted item refunded
  EXPECT_TRUE(ledger.Release(1));
}

TEST(LedgerTest, RecordingReleaseRefundsEstimateMinusBytesUsed) {
  ResourceLedger ledger = TwoMsuLedger();
  {
    auto txn = ledger.Reserve(
        "msuA", {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(0.5),
                                             Bytes(20 * kMiB))});
    ASSERT_TRUE(txn.ok());
    txn->Commit(0, /*stream=*/3);
  }
  EXPECT_EQ(ledger.FreeSpace("msuA"), Bytes(80 * kMiB));
  EXPECT_TRUE(ledger.Release(3, Bytes(5 * kMiB)));
  EXPECT_EQ(ledger.FreeSpace("msuA"), Bytes(95 * kMiB));  // only 5 MiB stays charged
}

TEST(LedgerTest, DownOrUnknownMsuCannotTakeReservations) {
  ResourceLedger ledger = TwoMsuLedger();
  ledger.MarkDown("msuA");
  EXPECT_FALSE(ledger.IsUp("msuA"));
  auto txn = ledger.Reserve(
      "msuA", {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(0.5), Bytes())});
  EXPECT_EQ(txn.status().code(), StatusCode::kUnavailable);
  auto unknown = ledger.Reserve(
      "nope", {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(0.5), Bytes())});
  EXPECT_EQ(unknown.status().code(), StatusCode::kUnavailable);
  auto bad_disk = ledger.Reserve(
      "msuB", {ResourceLedger::ReserveItem(9, DataRate::MegabytesPerSec(0.5), Bytes())});
  EXPECT_EQ(bad_disk.status().code(), StatusCode::kInvalidArgument);
}

TEST(LedgerTest, ReregistrationInvalidatesStaleHolds) {
  ResourceLedger ledger = TwoMsuLedger();
  const DataRate rate = DataRate::MegabytesPerSec(0.5);
  {
    auto txn = ledger.Reserve(
        "msuA", {ResourceLedger::ReserveItem(0, rate, Bytes(10 * kMiB))});
    ASSERT_TRUE(txn.ok());
    txn->Commit(0, /*stream=*/5);
  }
  // The MSU crashes and re-registers with fresh capacity numbers: the old
  // hold is gone, and releasing it later must not credit the fresh account.
  ledger.MarkDown("msuA");
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  EXPECT_EQ(ledger.outstanding_holds(), 0u);
  EXPECT_FALSE(ledger.Release(5));
  EXPECT_EQ(ledger.FreeSpace("msuA"), Bytes(100 * kMiB));
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), DataRate());
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
}

TEST(LedgerTest, CheckInvariantsHoldsAcrossMixedLifecycles) {
  // Drive the ledger through interleaved reservations, partial commits,
  // recording releases, and a re-registration; the internal-consistency
  // audit must pass at every step.
  ResourceLedger ledger = TwoMsuLedger();
  const DataRate rate = DataRate::MegabytesPerSec(0.4);
  {
    auto a = ledger.Reserve("msuA", {ResourceLedger::ReserveItem(0, rate, Bytes(8 * kMiB)),
                                     ResourceLedger::ReserveItem(1, rate, Bytes())});
    ASSERT_TRUE(a.ok());
    a->Commit(0, /*stream=*/10);  // the second item rolls back on destruction
    EXPECT_TRUE(ledger.CheckInvariants().ok());
  }
  EXPECT_TRUE(ledger.CheckInvariants().ok());
  {
    auto b = ledger.Reserve("msuB", {ResourceLedger::ReserveItem(1, rate, Bytes(4 * kMiB))});
    ASSERT_TRUE(b.ok());
    b->Commit(0, /*stream=*/11);
  }
  EXPECT_TRUE(ledger.CheckInvariants().ok());
  EXPECT_TRUE(ledger.Release(11, Bytes(1 * kMiB)));
  EXPECT_TRUE(ledger.CheckInvariants().ok());

  // Crash + fresh registration drops stream 10's now-stale hold; the audit
  // must accept the ledger before and after the (rejected) late release.
  ledger.MarkDown("msuA");
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
  EXPECT_FALSE(ledger.Release(10));
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
}

TEST(LedgerTest, CacheFedHoldChargesNicAndCacheButNoDisk) {
  ResourceLedger ledger;
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB), DataRate(), Bytes(8 * kMiB));
  const DataRate rate = DataRate::MegabytesPerSec(0.2);
  const ResourceLedger::ReserveItem viewer(ResourceLedger::kNoDisk, rate, Bytes(),
                                           Bytes(3 * kMiB));
  {
    // Rollback: an uncommitted cache-fed reservation refunds NIC and cache.
    auto txn = ledger.Reserve("msuA", {viewer});
    ASSERT_TRUE(txn.ok());
    EXPECT_EQ(ledger.Find("msuA")->nic_load, rate);
    EXPECT_EQ(ledger.Find("msuA")->cache_used, Bytes(3 * kMiB));
  }
  EXPECT_EQ(ledger.Find("msuA")->nic_load, DataRate());
  EXPECT_EQ(ledger.Find("msuA")->cache_used, Bytes());

  auto txn = ledger.Reserve("msuA", {viewer});
  ASSERT_TRUE(txn.ok());
  txn->Commit(0, /*stream=*/21);
  const MsuAccount& account = *ledger.Find("msuA");
  EXPECT_EQ(account.nic_load, rate);
  EXPECT_EQ(account.cache_used, Bytes(3 * kMiB));
  EXPECT_EQ(account.TotalLoad(), DataRate());  // no disk bandwidth
  EXPECT_EQ(account.disks[0].streams + account.disks[1].streams, 0);
  EXPECT_EQ(account.free_space, Bytes(100 * kMiB));
  EXPECT_EQ(ledger.outstanding_holds(), 1u);
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();

  // The cache budget is the ledger's own gate: 3 + 6 MiB > 8 MiB.
  auto over = ledger.Reserve(
      "msuA", {ResourceLedger::ReserveItem(ResourceLedger::kNoDisk, rate, Bytes(),
                                           Bytes(6 * kMiB))});
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ledger.Find("msuA")->cache_used, Bytes(3 * kMiB));

  EXPECT_TRUE(ledger.Release(21));
  EXPECT_EQ(ledger.Find("msuA")->nic_load, DataRate());
  EXPECT_EQ(ledger.Find("msuA")->cache_used, Bytes());
  EXPECT_FALSE(ledger.Release(21));

  // Re-registration invalidates a cache-fed hold like any other.
  auto again = ledger.Reserve("msuA", {viewer});
  ASSERT_TRUE(again.ok());
  again->Commit(0, /*stream=*/22);
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB), DataRate(), Bytes(8 * kMiB));
  EXPECT_EQ(ledger.outstanding_holds(), 0u);
  EXPECT_FALSE(ledger.Release(22));
  EXPECT_EQ(ledger.Find("msuA")->cache_used, Bytes());
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
}

TEST(LedgerTest, CopyEndsAreOrdinaryHolds) {
  using CopyEnd = ResourceLedger::CopyEnd;
  ResourceLedger ledger = TwoMsuLedger();
  const DataRate rate = DataRate::MegabytesPerSec(0.3);
  const ResourceLedger::HoldId source = ResourceLedger::CopyHold(7, CopyEnd::kSource);
  const ResourceLedger::HoldId target = ResourceLedger::CopyHold(7, CopyEnd::kTarget);
  EXPECT_NE(source, target);
  EXPECT_LT(target, 0);  // never a stream id
  EXPECT_LT(source, 0);
  {
    // Rollback: a copy end reserved but never committed is refunded.
    auto txn = ledger.Reserve("msuB", {ResourceLedger::ReserveItem(1, rate, Bytes(30 * kMiB))});
    ASSERT_TRUE(txn.ok());
    EXPECT_EQ(ledger.DiskLoad("msuB", 1), rate);
  }
  EXPECT_EQ(ledger.DiskLoad("msuB", 1), DataRate());
  EXPECT_EQ(ledger.FreeSpace("msuB"), Bytes(100 * kMiB));

  const auto take = [&](ResourceLedger::HoldId id, const std::string& msu, int disk,
                        Bytes space) {
    auto txn = ledger.Reserve(msu, {ResourceLedger::ReserveItem(disk, rate, space)});
    ASSERT_TRUE(txn.ok());
    txn->Commit(0, id);
  };
  take(source, "msuA", 0, Bytes());
  take(target, "msuB", 1, Bytes(30 * kMiB));
  // Copy bandwidth is disk load like a stream's: placement and load ranking
  // see it, and so does the NIC on both ends.
  EXPECT_EQ(ledger.DiskLoad("msuA", 0), rate);
  EXPECT_EQ(ledger.DiskLoad("msuB", 1), rate);
  EXPECT_EQ(ledger.TotalReserved(), rate * 2);
  EXPECT_EQ(ledger.Find("msuA")->nic_load, rate);
  EXPECT_EQ(ledger.Find("msuB")->disks[1].streams, 1);
  EXPECT_EQ(ledger.FreeSpace("msuB"), Bytes(70 * kMiB));
  EXPECT_EQ(ledger.outstanding_holds(), 2u);
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();

  // The replica installed: its space stays charged, the bandwidth returns.
  EXPECT_TRUE(ledger.Release(source));
  EXPECT_TRUE(ledger.Release(target, Bytes(30 * kMiB)));
  EXPECT_EQ(ledger.TotalReserved(), DataRate());
  EXPECT_EQ(ledger.FreeSpace("msuB"), Bytes(70 * kMiB));
  EXPECT_EQ(ledger.outstanding_holds(), 0u);
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();

  // An aborted copy refunds the target's space too.
  const ResourceLedger::HoldId next_target = ResourceLedger::CopyHold(8, CopyEnd::kTarget);
  take(next_target, "msuB", 0, Bytes(20 * kMiB));
  EXPECT_EQ(ledger.FreeSpace("msuB"), Bytes(50 * kMiB));
  EXPECT_TRUE(ledger.Release(next_target));
  EXPECT_EQ(ledger.FreeSpace("msuB"), Bytes(70 * kMiB));

  // The target's MSU re-registers mid-copy: its end is invalidated, the
  // source's end still holds until the copy is released.
  const ResourceLedger::HoldId third_source = ResourceLedger::CopyHold(9, CopyEnd::kSource);
  const ResourceLedger::HoldId third_target = ResourceLedger::CopyHold(9, CopyEnd::kTarget);
  take(third_source, "msuA", 1, Bytes());
  take(third_target, "msuB", 0, Bytes(20 * kMiB));
  ledger.RegisterMsu("msuB", 2, Bytes(100 * kMiB));
  EXPECT_EQ(ledger.outstanding_holds(), 1u);
  EXPECT_FALSE(ledger.Release(third_target));
  EXPECT_EQ(ledger.FreeSpace("msuB"), Bytes(100 * kMiB));
  EXPECT_TRUE(ledger.Release(third_source));
  EXPECT_EQ(ledger.TotalReserved(), DataRate());
  EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
}

TEST(LedgerTest, CheckInvariantsOnAMixedLedger) {
  // Disk streams, a recording, cache-fed viewers, both ends of a copy and an
  // in-flight reservation on one ledger; the audit passes at every step, and
  // the balances are the sums of the holds.
  ResourceLedger ledger;
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB), DataRate(), Bytes(16 * kMiB));
  ledger.RegisterMsu("msuB", 2, Bytes(100 * kMiB), DataRate(), Bytes(16 * kMiB));
  const DataRate rate = DataRate::MegabytesPerSec(0.25);
  const auto check = [&] {
    EXPECT_TRUE(ledger.CheckInvariants().ok()) << ledger.CheckInvariants().ToString();
  };
  {
    auto group = ledger.Reserve(
        "msuA", {ResourceLedger::ReserveItem(0, rate, Bytes()),
                 ResourceLedger::ReserveItem(ResourceLedger::kNoDisk, rate, Bytes(),
                                             Bytes(2 * kMiB)),
                 ResourceLedger::ReserveItem(ResourceLedger::kNoDisk, rate, Bytes(),
                                             Bytes(2 * kMiB))});
    ASSERT_TRUE(group.ok());
    group->CommitNext(1);  // the delivery stream
    group->CommitNext(2);  // one member; the other stays in flight
    check();
    auto recording =
        ledger.Reserve("msuB", {ResourceLedger::ReserveItem(1, rate, Bytes(10 * kMiB))});
    ASSERT_TRUE(recording.ok());
    recording->CommitNext(3);
    auto source = ledger.Reserve("msuA", {ResourceLedger::ReserveItem(1, rate, Bytes())});
    auto target = ledger.Reserve("msuB", {ResourceLedger::ReserveItem(0, rate, Bytes(20 * kMiB))});
    ASSERT_TRUE(source.ok() && target.ok());
    source->CommitNext(ResourceLedger::CopyHold(1, ResourceLedger::CopyEnd::kSource));
    target->CommitNext(ResourceLedger::CopyHold(1, ResourceLedger::CopyEnd::kTarget));
    check();
    const MsuAccount& a = *ledger.Find("msuA");
    EXPECT_EQ(a.nic_load, rate * 4);  // in-flight member included
    EXPECT_EQ(a.TotalLoad(), rate * 2);
    EXPECT_EQ(a.cache_used, Bytes(4 * kMiB));
    const MsuAccount& b = *ledger.Find("msuB");
    EXPECT_EQ(b.nic_load, rate * 2);
    EXPECT_EQ(b.free_space, Bytes(70 * kMiB));
    EXPECT_EQ(ledger.outstanding_holds(), 5u);
  }
  // The in-flight member rolled back with its transaction.
  EXPECT_EQ(ledger.Find("msuA")->nic_load, rate * 3);
  EXPECT_EQ(ledger.Find("msuA")->cache_used, Bytes(2 * kMiB));
  check();
  EXPECT_TRUE(ledger.Release(3, Bytes(4 * kMiB)));
  EXPECT_TRUE(ledger.Release(ResourceLedger::CopyHold(1, ResourceLedger::CopyEnd::kSource)));
  check();
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB), DataRate(), Bytes(16 * kMiB));
  check();
  EXPECT_TRUE(ledger.Release(ResourceLedger::CopyHold(1, ResourceLedger::CopyEnd::kTarget)));
  EXPECT_EQ(ledger.outstanding_holds(), 0u);
  EXPECT_EQ(ledger.Find("msuB")->free_space, Bytes(96 * kMiB));
  EXPECT_EQ(ledger.TotalReserved(), DataRate());
  check();
}

TEST(LedgerTest, EqualityIgnoresRegistrationEpoch) {
  using Item = ResourceLedger::ReserveItem;
  const DataRate rate = DataRate::MegabytesPerSec(0.5);
  // msuA registered `registrations` times, then one stream held on `disk`.
  const auto make = [&](int registrations, int disk) {
    ResourceLedger ledger;
    for (int i = 0; i < registrations; ++i) {
      ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB), DataRate(), Bytes(16 * kMiB));
    }
    auto txn = ledger.Reserve("msuA", {Item(disk, rate, Bytes(10 * kMiB))});
    EXPECT_TRUE(txn.ok());
    txn->Commit(0, /*stream=*/5);
    return ledger;
  };
  // Equal balances reached through different registration histories.
  const ResourceLedger once = make(1, 0);
  const ResourceLedger twice = make(2, 0);
  ASSERT_NE(once.Find("msuA")->epoch, twice.Find("msuA")->epoch);
  EXPECT_TRUE(once == twice);

  // A differing disk load, free space or cache use compares unequal.
  EXPECT_FALSE(once == make(1, 1));
  for (const Item& extra : {Item(ResourceLedger::kNoDisk, DataRate(), Bytes(kMiB)),
                            Item(ResourceLedger::kNoDisk, DataRate(), Bytes(), Bytes(kMiB))}) {
    ResourceLedger other = make(1, 0);
    {
      auto txn = other.Reserve("msuA", {extra});
      ASSERT_TRUE(txn.ok());
      EXPECT_FALSE(once == other);
    }
    EXPECT_TRUE(once == other);  // the reservation rolled back
  }

  // A hold that charges nothing is stale on one side (committed after msuA
  // re-registered) and current on the other: the balances agree, the
  // ledgers do not.
  const Item nothing(ResourceLedger::kNoDisk, DataRate(), Bytes());
  ResourceLedger stale;
  stale.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  auto late = stale.Reserve("msuA", {nothing});
  ASSERT_TRUE(late.ok());
  stale.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  late->Commit(0, /*stream=*/5);
  ResourceLedger current;
  current.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  current.RegisterMsu("msuA", 2, Bytes(100 * kMiB));
  auto txn = current.Reserve("msuA", {nothing});
  ASSERT_TRUE(txn.ok());
  txn->Commit(0, /*stream=*/5);
  ASSERT_EQ(stale.outstanding_holds(), 1u);
  EXPECT_TRUE(*stale.Find("msuA") == *current.Find("msuA"));
  EXPECT_FALSE(stale == current);
}

TEST(RegistryTest, BuiltinsAndUnknownNames) {
  const PlacementPolicyRegistry registry = PlacementPolicyRegistry::WithBuiltins();
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"first-fit", "least-loaded", "power-of-two",
                                      "replica-aware"}));
  for (const std::string& name : registry.names()) {
    auto policy = registry.Instantiate(name, 1);
    ASSERT_TRUE(policy.ok());
    EXPECT_EQ(name, (*policy)->name());
  }
  EXPECT_EQ(registry.Instantiate("round-robin", 1).status().code(), StatusCode::kNotFound);
}

TEST(PolicyTest, LeastLoadedPicksLightestMsu) {
  ResourceLedger ledger = TwoMsuLedger();
  auto preload = ledger.Reserve(
      "msuA", {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(1.0), Bytes())});
  ASSERT_TRUE(preload.ok());
  preload->Commit(0, /*stream=*/1);

  auto policy = PlacementPolicyRegistry::WithBuiltins().Instantiate("least-loaded", 1);
  ASSERT_TRUE(policy.ok());
  const PlacementSpec spec =
      PlaySpec(DataRate::MegabytesPerSec(0.2), {PlacementCandidate("msuA", 0, "a.mpg"),
                                                PlacementCandidate("msuB", 0, "b.mpg")});
  auto placement = (*policy)->Place(spec, ledger);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->msu, "msuB");
  EXPECT_EQ(placement->files[0], "b.mpg");
}

TEST(PolicyTest, FirstFitPrefersNameOrderEvenWhenLoaded) {
  ResourceLedger ledger = TwoMsuLedger();
  auto preload = ledger.Reserve(
      "msuA", {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(1.0), Bytes())});
  ASSERT_TRUE(preload.ok());
  preload->Commit(0, /*stream=*/1);

  auto policy = PlacementPolicyRegistry::WithBuiltins().Instantiate("first-fit", 1);
  ASSERT_TRUE(policy.ok());
  const PlacementSpec spec =
      PlaySpec(DataRate::MegabytesPerSec(0.2), {PlacementCandidate("msuA", 0, "a.mpg"),
                                                PlacementCandidate("msuB", 0, "b.mpg")});
  auto placement = (*policy)->Place(spec, ledger);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->msu, "msuA");  // still has headroom, and sorts first
}

TEST(PolicyTest, ReplicaAwareSpreadsByCommittedStreamCount) {
  ResourceLedger ledger = TwoMsuLedger();
  // msuA already serves two committed streams at a *lower* total rate than
  // msuB's single heavy stream: stream-count spreading must still pick msuB.
  auto a = ledger.Reserve("msuA",
                          {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(0.1), Bytes()),
                           ResourceLedger::ReserveItem(1, DataRate::MegabytesPerSec(0.1), Bytes())});
  ASSERT_TRUE(a.ok());
  a->Commit(0, 1);
  a->Commit(1, 2);
  auto b = ledger.Reserve(
      "msuB", {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(1.0), Bytes())});
  ASSERT_TRUE(b.ok());
  b->Commit(0, 3);

  auto policy = PlacementPolicyRegistry::WithBuiltins().Instantiate("replica-aware", 1);
  ASSERT_TRUE(policy.ok());
  const PlacementSpec spec =
      PlaySpec(DataRate::MegabytesPerSec(0.2), {PlacementCandidate("msuA", 0, "a.mpg"),
                                                PlacementCandidate("msuB", 1, "b.mpg")});
  auto placement = (*policy)->Place(spec, ledger);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->msu, "msuB");
}

TEST(PolicyTest, PowerOfTwoIsDeterministicAndFeasible) {
  const PlacementPolicyRegistry registry = PlacementPolicyRegistry::WithBuiltins();
  std::vector<std::string> picks;
  for (int run = 0; run < 2; ++run) {
    ResourceLedger ledger = TwoMsuLedger();
    ledger.RegisterMsu("msuC", 2, Bytes(100 * kMiB));
    auto policy = registry.Instantiate("power-of-two", 42);
    ASSERT_TRUE(policy.ok());
    std::string sequence;
    for (int i = 0; i < 8; ++i) {
      const PlacementSpec spec = PlaySpec(DataRate::MegabytesPerSec(0.2),
                                          {PlacementCandidate("msuA", 0, "a.mpg"),
                                           PlacementCandidate("msuB", 0, "b.mpg"),
                                           PlacementCandidate("msuC", 0, "c.mpg")});
      auto placement = (*policy)->Place(spec, ledger);
      ASSERT_TRUE(placement.ok());
      sequence += placement->msu + ";";
      auto txn = ledger.Reserve(placement->msu,
                                {ResourceLedger::ReserveItem(placement->disks[0],
                                                             DataRate::MegabytesPerSec(0.2),
                                                             Bytes())});
      ASSERT_TRUE(txn.ok());
      txn->Commit(0, 100 + i);
    }
    picks.push_back(sequence);
  }
  EXPECT_EQ(picks[0], picks[1]);  // same seed, same decisions
}

TEST(PolicyTest, ExhaustedWhenNoCandidateHasHeadroom) {
  ResourceLedger ledger = TwoMsuLedger();
  const PlacementPolicyRegistry registry = PlacementPolicyRegistry::WithBuiltins();
  // Saturate every candidate disk to the budget.
  for (const std::string msu : {"msuA", "msuB"}) {
    auto txn = ledger.Reserve(
        msu, {ResourceLedger::ReserveItem(0, DataRate::MegabytesPerSec(2.0), Bytes())});
    ASSERT_TRUE(txn.ok());
    txn->Commit(0, msu == "msuA" ? 1 : 2);
  }
  const PlacementSpec spec =
      PlaySpec(DataRate::MegabytesPerSec(0.2), {PlacementCandidate("msuA", 0, "a.mpg"),
                                                PlacementCandidate("msuB", 0, "b.mpg")});
  for (const std::string& name : registry.names()) {
    auto policy = registry.Instantiate(name, 1);
    ASSERT_TRUE(policy.ok());
    auto placement = (*policy)->Place(spec, ledger);
    EXPECT_EQ(placement.status().code(), StatusCode::kResourceExhausted) << name;
  }
}

// Network-path admission: an MSU whose NIC budget would be oversubscribed is
// skipped even when its disks individually have headroom. msuA has a 4 Mbit/s
// NIC with 3 Mbit/s already committed on disk 0; a 1.5 Mbit/s play could fit
// disk 1's bandwidth budget but not the shared NIC, so every builtin policy
// must route it to msuB — and report exhaustion when msuA is the only copy.
TEST(PolicyTest, NicBudgetGatesAdmissionAcrossDisks) {
  ResourceLedger ledger;
  ledger.RegisterMsu("msuA", 2, Bytes(100 * kMiB), DataRate::MegabitsPerSec(4.0));
  ledger.RegisterMsu("msuB", 2, Bytes(100 * kMiB), DataRate::MegabitsPerSec(100.0));
  {
    auto txn = ledger.Reserve(
        "msuA", {ResourceLedger::ReserveItem(0, DataRate::MegabitsPerSec(3.0), Bytes())});
    ASSERT_TRUE(txn.ok());
    txn->Commit(0, /*stream=*/1);
  }

  const PlacementPolicyRegistry registry = PlacementPolicyRegistry::WithBuiltins();
  const PlacementSpec mirrored =
      PlaySpec(DataRate::MegabitsPerSec(1.5), {PlacementCandidate("msuA", 1, "a.mpg"),
                                               PlacementCandidate("msuB", 1, "b.mpg")});
  const PlacementSpec only_a =
      PlaySpec(DataRate::MegabitsPerSec(1.5), {PlacementCandidate("msuA", 1, "a.mpg")});
  for (const std::string& name : registry.names()) {
    auto policy = registry.Instantiate(name, 1);
    ASSERT_TRUE(policy.ok());
    auto placement = (*policy)->Place(mirrored, ledger);
    ASSERT_TRUE(placement.ok()) << name;
    EXPECT_EQ(placement->msu, "msuB") << name;

    auto saturated = (*policy)->Place(only_a, ledger);
    EXPECT_EQ(saturated.status().code(), StatusCode::kResourceExhausted) << name;
  }

  // A small stream still fits under msuA's remaining 1 Mbit/s of NIC budget.
  const PlacementSpec small =
      PlaySpec(DataRate::MegabitsPerSec(0.5), {PlacementCandidate("msuA", 1, "a.mpg")});
  auto policy = registry.Instantiate("first-fit", 1);
  ASSERT_TRUE(policy.ok());
  auto placement = (*policy)->Place(small, ledger);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->msu, "msuA");
}

}  // namespace
}  // namespace calliope
