#include "src/place/policy.h"

#include <algorithm>
#include <limits>

namespace calliope {

Bytes PlacementSpec::TotalSpace() const {
  Bytes total;
  for (const ComponentSpec& component : components) {
    total += component.space;
  }
  return total;
}

DataRate PlacementSpec::TotalRate() const {
  DataRate total;
  for (const ComponentSpec& component : components) {
    total = total + component.rate;
  }
  return total;
}

std::optional<Placement> PlaceOnMsu(const MsuAccount& account, const PlacementSpec& spec,
                                    bool first_fit) {
  if (!account.up) {
    return std::nullopt;
  }
  // Network-path admission (§2.2 extension): every stream the MSU serves
  // leaves through one NIC, so the whole group must fit under its budget no
  // matter how the components spread across disks.
  if (!account.nic_budget.is_zero() &&
      account.nic_load + spec.TotalRate() > account.nic_budget) {
    return std::nullopt;
  }
  // Background replica copies are part of each disk's load: live admissions
  // route around a copy-busy disk, and the Coordinator preempts the copy when
  // nothing fits anywhere.
  std::vector<DataRate> scratch(account.disks.size());
  for (size_t d = 0; d < account.disks.size(); ++d) {
    scratch[d] = account.disks[d].load;
  }
  Placement placement;
  placement.msu = account.node;
  placement.disks.assign(spec.components.size(), -1);
  placement.files.assign(spec.components.size(), "");
  for (size_t i = 0; i < spec.components.size(); ++i) {
    const ComponentSpec& component = spec.components[i];
    if (!spec.record) {
      // Serve from the least-loaded copy of the item on this MSU that still
      // has bandwidth headroom (copies on several disks spread hot titles).
      const PlacementCandidate* best = nullptr;
      for (const PlacementCandidate& candidate : component.candidates) {
        if (candidate.msu != account.node) {
          continue;
        }
        if (candidate.disk < 0 || static_cast<size_t>(candidate.disk) >= scratch.size()) {
          continue;
        }
        const DataRate& load = scratch[static_cast<size_t>(candidate.disk)];
        if (load + component.rate > spec.disk_budget) {
          continue;
        }
        if (best == nullptr || (!first_fit && load < scratch[static_cast<size_t>(best->disk)])) {
          best = &candidate;
        }
        if (first_fit && best != nullptr) {
          break;
        }
      }
      if (best == nullptr) {
        return std::nullopt;
      }
      auto& load = scratch[static_cast<size_t>(best->disk)];
      load = load + component.rate;
      placement.disks[i] = best->disk;
      placement.files[i] = best->file_name.empty() ? component.file_name : best->file_name;
    } else {
      // Recording: any disk with headroom may take it; pick the least loaded
      // (or, under first-fit, the first) one.
      int best = -1;
      for (int d = 0; d < account.disk_count; ++d) {
        const DataRate& load = scratch[static_cast<size_t>(d)];
        if (load + component.rate > spec.disk_budget) {
          continue;
        }
        if (best < 0 || (!first_fit && load < scratch[static_cast<size_t>(best)])) {
          best = d;
        }
        if (first_fit && best >= 0) {
          break;
        }
      }
      if (best < 0) {
        return std::nullopt;
      }
      scratch[static_cast<size_t>(best)] = scratch[static_cast<size_t>(best)] + component.rate;
      placement.disks[i] = best;
      placement.files[i] = component.file_name;
    }
  }
  if (spec.record && account.free_space < spec.TotalSpace()) {
    return std::nullopt;
  }
  return placement;
}

namespace {

Status NoFit() { return ResourceExhaustedError("no MSU with resources for the group"); }

// Cache affinity shared by every policy: when the spec names a preferred MSU
// (it holds the title's cached prefix or a joinable delivery group) and that
// MSU can host the group, take it before running the policy's own scan.
std::optional<Placement> TryPreferred(const PlacementSpec& spec,
                                      const ResourceLedger& ledger) {
  if (spec.prefer_msu.empty()) {
    return std::nullopt;
  }
  const MsuAccount* account = ledger.Find(spec.prefer_msu);
  if (account == nullptr) {
    return std::nullopt;
  }
  return PlaceOnMsu(*account, spec);
}

// Historical default: among feasible MSUs, the one with the least total
// reserved bandwidth (strictly less; name order breaks ties).
class LeastLoadedPolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "least-loaded"; }

  Result<Placement> Place(const PlacementSpec& spec, const ResourceLedger& ledger) override {
    if (std::optional<Placement> preferred = TryPreferred(spec, ledger)) {
      return *std::move(preferred);
    }
    std::optional<Placement> chosen;
    DataRate chosen_load = DataRate(std::numeric_limits<int64_t>::max());
    for (const auto& [msu_name, account] : ledger.msus()) {
      std::optional<Placement> placement = PlaceOnMsu(account, spec);
      if (placement.has_value() && account.TotalLoad() < chosen_load) {
        chosen_load = account.TotalLoad();
        chosen = std::move(placement);
      }
    }
    if (!chosen.has_value()) {
      return NoFit();
    }
    return *std::move(chosen);
  }
};

class FirstFitPolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "first-fit"; }

  Result<Placement> Place(const PlacementSpec& spec, const ResourceLedger& ledger) override {
    if (std::optional<Placement> preferred = TryPreferred(spec, ledger)) {
      return *std::move(preferred);
    }
    for (const auto& [msu_name, account] : ledger.msus()) {
      std::optional<Placement> placement = PlaceOnMsu(account, spec, /*first_fit=*/true);
      if (placement.has_value()) {
        return *std::move(placement);
      }
    }
    return NoFit();
  }
};

// Samples two distinct up MSUs and takes the less-loaded feasible one; the
// two-sample trick gets most of least-loaded's balance at O(1) cost. Falls
// back to a full least-loaded scan when neither sample fits, so this policy
// never rejects a request the cluster could serve.
class PowerOfTwoChoicesPolicy : public PlacementPolicy {
 public:
  explicit PowerOfTwoChoicesPolicy(uint64_t seed) : rng_(seed) {}

  const char* name() const override { return "power-of-two"; }

  Result<Placement> Place(const PlacementSpec& spec, const ResourceLedger& ledger) override {
    if (std::optional<Placement> preferred = TryPreferred(spec, ledger)) {
      return *std::move(preferred);
    }
    std::vector<const MsuAccount*> up;
    for (const auto& [msu_name, account] : ledger.msus()) {
      if (account.up) {
        up.push_back(&account);
      }
    }
    if (up.size() > 2) {
      const size_t a = static_cast<size_t>(rng_.NextBelow(up.size()));
      size_t b = static_cast<size_t>(rng_.NextBelow(up.size() - 1));
      if (b >= a) {
        ++b;
      }
      std::optional<Placement> first = PlaceOnMsu(*up[a], spec);
      std::optional<Placement> second = PlaceOnMsu(*up[b], spec);
      if (first.has_value() && second.has_value()) {
        const bool take_second = up[b]->TotalLoad() < up[a]->TotalLoad();
        return take_second ? *std::move(second) : *std::move(first);
      }
      if (first.has_value()) {
        return *std::move(first);
      }
      if (second.has_value()) {
        return *std::move(second);
      }
    }
    return fallback_.Place(spec, ledger);
  }

 private:
  Rng rng_;
  LeastLoadedPolicy fallback_;
};

// Spreads playback across the replica holders by committed stream count on
// the disks the group would use; reserved bandwidth, then name, break ties.
// With fully replicated content this keeps every copy warm, which is what
// makes post-failure re-placement cheap.
class ReplicaAwarePolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "replica-aware"; }

  Result<Placement> Place(const PlacementSpec& spec, const ResourceLedger& ledger) override {
    if (std::optional<Placement> preferred = TryPreferred(spec, ledger)) {
      return *std::move(preferred);
    }
    std::optional<Placement> chosen;
    int chosen_streams = std::numeric_limits<int>::max();
    DataRate chosen_load = DataRate(std::numeric_limits<int64_t>::max());
    for (const auto& [msu_name, account] : ledger.msus()) {
      std::optional<Placement> placement = PlaceOnMsu(account, spec);
      if (!placement.has_value()) {
        continue;
      }
      int streams = 0;
      for (int disk : placement->disks) {
        streams += account.disks[static_cast<size_t>(disk)].streams;
      }
      const DataRate load = account.TotalLoad();
      if (streams < chosen_streams ||
          (streams == chosen_streams && load < chosen_load)) {
        chosen_streams = streams;
        chosen_load = load;
        chosen = std::move(placement);
      }
    }
    if (!chosen.has_value()) {
      return NoFit();
    }
    return *std::move(chosen);
  }
};

}  // namespace

PlacementPolicyRegistry PlacementPolicyRegistry::WithBuiltins() {
  PlacementPolicyRegistry registry;
  (void)registry.Register("least-loaded", [](uint64_t) {
    return std::make_unique<LeastLoadedPolicy>();
  });
  (void)registry.Register("first-fit", [](uint64_t) {
    return std::make_unique<FirstFitPolicy>();
  });
  (void)registry.Register("power-of-two", [](uint64_t seed) {
    return std::make_unique<PowerOfTwoChoicesPolicy>(seed);
  });
  (void)registry.Register("replica-aware", [](uint64_t) {
    return std::make_unique<ReplicaAwarePolicy>();
  });
  return registry;
}

Status PlacementPolicyRegistry::Register(std::string name, Factory factory) {
  auto [it, inserted] = factories_.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    return AlreadyExistsError("placement policy exists: " + it->first);
  }
  return OkStatus();
}

Result<std::unique_ptr<PlacementPolicy>> PlacementPolicyRegistry::Instantiate(
    const std::string& name, uint64_t seed) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return NotFoundError("unknown placement policy: " + name);
  }
  return it->second(seed);
}

std::vector<std::string> PlacementPolicyRegistry::names() const {
  std::vector<std::string> names;
  for (const auto& [name, factory] : factories_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace calliope
